package summary_test

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"meda/internal/lint/analysis"
	"meda/internal/lint/summary"
)

// loadSums computes the fixture package's summaries once per test run.
func loadSums(t *testing.T) (*analysis.Pass, summary.Summaries) {
	t.Helper()
	dir := filepath.Join("testdata", "sums")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	pass := &analysis.Pass{
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Facts:     analysis.NewFactStore(),
		Report:    func(analysis.Diagnostic) {},
	}
	return pass, summary.Compute(pass)
}

func fn(t *testing.T, pass *analysis.Pass, name string) *types.Func {
	t.Helper()
	parts := strings.Split(name, ".")
	obj := pass.Pkg.Scope().Lookup(parts[0])
	if obj == nil {
		t.Fatalf("no object %s", name)
	}
	if len(parts) == 1 {
		f, ok := obj.(*types.Func)
		if !ok {
			t.Fatalf("%s is not a function", name)
		}
		return f
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		t.Fatalf("%s is not a named type", parts[0])
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == parts[1] {
			return named.Method(i)
		}
	}
	t.Fatalf("no method %s", name)
	return nil
}

func sumOf(t *testing.T, pass *analysis.Pass, sums summary.Summaries, name string) *summary.FnSummary {
	t.Helper()
	s := sums.Of(pass, fn(t, pass, name))
	if s == nil {
		t.Fatalf("no summary for %s", name)
	}
	return s
}

// TestSCCConvergence: the mutually recursive PingSend/PongSend pair and
// the self-recursive SelfClean must both reach a fixpoint, the former
// sending on its channel, the latter with no channel ops.
func TestSCCConvergence(t *testing.T) {
	pass, sums := loadSums(t)
	for _, name := range []string{"PingSend", "PongSend"} {
		if s := sumOf(t, pass, sums, name); !s.Params[0].Has(summary.OpSend) {
			t.Errorf("%s: recursion did not converge to a send on ch (got %b)", name, s.Params[0])
		}
	}
	if s := sums.Of(pass, fn(t, pass, "SelfClean")); s != nil && s.Params[0] != 0 {
		t.Errorf("SelfClean: summary should be empty, got %+v", s)
	}
}

func TestParamOps(t *testing.T) {
	pass, sums := loadSums(t)
	cases := []struct {
		fn    string
		param int
		want  summary.ParamOps
	}{
		{"SendTo", 0, summary.OpSend},
		{"CloseIt", 0, summary.OpClose},
		{"DrainVia", 0, summary.OpRecv},
		{"Recv", 0, summary.OpRecv},
		{"Leak", 0, summary.OpEscape},
		{"Hand", 0, summary.OpEscape},
		{"Capture", 0, summary.OpEscape},
		{"Opaque", 0, summary.OpEscape},
		{"Poll", 0, summary.OpRecv},
		{"UsePutter", 1, summary.OpSend}, // narrow CHA through Putter → SendPutter
	}
	for _, c := range cases {
		s := sumOf(t, pass, sums, c.fn)
		if len(s.Params) <= c.param {
			t.Errorf("%s: summary has %d params, want > %d", c.fn, len(s.Params), c.param)
			continue
		}
		if !s.Params[c.param].Has(c.want) {
			t.Errorf("%s param %d ops = %b, want bit %b set", c.fn, c.param, s.Params[c.param], c.want)
		}
	}
}

// TestFactsExported: non-empty summaries must be exported as facts keyed by
// object, so downstream packages can import them.
func TestFactsExported(t *testing.T) {
	pass, _ := loadSums(t)
	var fact summary.FnSummary
	if !pass.ImportObjectFact(fn(t, pass, "CloseIt"), &fact) {
		t.Fatal("CloseIt: no FnSummary fact exported")
	}
	if len(fact.Params) != 1 || !fact.Params[0].Has(summary.OpClose) {
		t.Errorf("CloseIt fact lacks the close of ch: %+v", fact)
	}
	// A clean function exports no fact.
	var clean summary.FnSummary
	if pass.ImportObjectFact(fn(t, pass, "SelfClean"), &clean) {
		t.Errorf("SelfClean exported a fact: %+v", clean)
	}
	if sums := (summary.Summaries{}); sums.Of(pass, nil) != nil {
		t.Error("Of(nil) should be nil")
	}
}
