package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"meda/internal/lint"
	"meda/internal/lint/analysis"
	"meda/internal/lint/analysis/analysistest"
)

func testdata(name string) string { return filepath.Join("testdata", name) }

func TestFloatCmp(t *testing.T)    { analysistest.Run(t, testdata("floatcmp"), lint.FloatCmp) }
func TestLockOrder(t *testing.T)   { analysistest.Run(t, testdata("lockorder"), lint.LockOrder) }
func TestNilStrategy(t *testing.T) { analysistest.Run(t, testdata("nilstrategy"), lint.NilStrategy) }
func TestErrFlow(t *testing.T)     { analysistest.Run(t, testdata("errflow"), lint.ErrFlow) }
func TestLockHeld(t *testing.T)    { analysistest.Run(t, testdata("lockheld"), lint.LockHeld) }

func TestGoroutineLeak(t *testing.T) {
	analysistest.Run(t, testdata("goroutineleak"), lint.GoroutineLeak)
}
func TestWaitGroup(t *testing.T) { analysistest.Run(t, testdata("waitgroup"), lint.WaitGroup) }

func TestHotAlloc(t *testing.T) { analysistest.Run(t, testdata("hotalloc"), lint.HotAlloc) }

func TestErrFlowStrict(t *testing.T) {
	analysistest.Run(t, testdata("errflowstrict"), lint.ErrFlowStrict)
}

// TestStrictCmdAudit: the strict dropped-error analyzer must stay clean
// over every command main — the make lint gate for cmd/ in test form.
func TestStrictCmdAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping cmd audit in -short mode")
	}
	findings, _, err := lint.Run(".", []string{"./cmd/..."},
		append(lint.Analyzers(), lint.ErrFlowStrict))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestLockHeldCrossPackageFacts drives the full Run pipeline over the
// provider/consumer golden pair: the finding in consumer exists only when
// the driver analyzes provider first and shares its MayBlock facts.
func TestLockHeldCrossPackageFacts(t *testing.T) {
	findings, _, err := lint.Run(".", []string{
		// Deliberately listed consumer-first: the driver must reorder to
		// dependency order on its own.
		"./internal/lint/testdata/lockheldfacts/consumer",
		"./internal/lint/testdata/lockheldfacts/provider",
	}, []*analysis.Analyzer{lint.LockHeld})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "lockheld" {
		t.Errorf("finding analyzer = %q, want lockheld", f.Analyzer)
	}
	if !strings.Contains(f.Message, "provider.Blocks") || !strings.Contains(f.Message, "channel receive") {
		t.Errorf("finding message %q does not name the imported blocking function", f.Message)
	}
	if !strings.HasSuffix(f.Pos.Filename, "consumer.go") {
		t.Errorf("finding at %s, want it inside consumer.go", f.Pos)
	}
}

// TestSummaryCrossPackageFacts drives the full Run pipeline over the
// summary provider/consumer golden pair: goroutineleak's finding in
// consumer exists only because provider's FnSummary facts crossed the
// package boundary through the shared store.
func TestSummaryCrossPackageFacts(t *testing.T) {
	findings, _, err := lint.Run(".", []string{
		// Consumer-first on purpose: the driver must reorder on its own.
		"./internal/lint/testdata/summaryfacts/consumer",
		"./internal/lint/testdata/summaryfacts/provider",
	}, []*analysis.Analyzer{lint.GoroutineLeak})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "goroutineleak" || !strings.Contains(f.Message, "sends on ch") {
		t.Errorf("finding %q is not goroutineleak's leaked send", f)
	}
	if !strings.HasSuffix(f.Pos.Filename, "consumer.go") {
		t.Errorf("finding at %s, want it inside consumer.go", f.Pos)
	}
}

// TestHotAllocCrossPackageFacts drives the full Run pipeline over the
// hotalloc provider/consumer golden pair: the //meda:hotpath violation is
// two call frames away in another package and reaches the contract site
// only through provider's exported AllocFacts.
func TestHotAllocCrossPackageFacts(t *testing.T) {
	findings, _, err := lint.Run(".", []string{
		// Consumer-first on purpose: the driver must reorder on its own.
		"./internal/lint/testdata/hotallocfacts/consumer",
		"./internal/lint/testdata/hotallocfacts/provider",
	}, []*analysis.Analyzer{lint.HotAlloc})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "hotalloc" {
		t.Errorf("finding analyzer = %q, want hotalloc", f.Analyzer)
	}
	if !strings.Contains(f.Message, "make via provider.Outer → Grow") {
		t.Errorf("finding message %q does not carry the cross-package witness chain", f.Message)
	}
	if !strings.HasSuffix(f.Pos.Filename, "consumer.go") {
		t.Errorf("finding at %s, want it inside consumer.go", f.Pos)
	}
}

// TestSuppressionDirectives: a reasoned //lint:ignore removes its finding;
// a reasonless, unknown-analyzer, or dead directive is itself a finding.
func TestSuppressionDirectives(t *testing.T) {
	findings, _, err := lint.Run(".", []string{"./internal/lint/testdata/suppress"}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var directive, floatcmp []string
	for _, f := range findings {
		switch f.Analyzer {
		case "directive":
			directive = append(directive, f.Message)
		case "floatcmp":
			floatcmp = append(floatcmp, f.Message)
		default:
			t.Errorf("unexpected %s finding: %s", f.Analyzer, f)
		}
	}
	// Only unknownAnalyzer's comparison survives: the well-formed and the
	// reasonless directives both suppress theirs.
	if len(floatcmp) != 1 {
		t.Errorf("got %d floatcmp findings, want 1 (the misspelled directive suppresses nothing): %v",
			len(floatcmp), floatcmp)
	}
	wantDirective := []string{"unknown analyzer", "has no reason", "suppresses nothing"}
	if len(directive) != len(wantDirective) {
		t.Fatalf("got %d directive findings, want %d: %v", len(directive), len(wantDirective), directive)
	}
	for _, want := range wantDirective {
		found := false
		for _, msg := range directive {
			if strings.Contains(msg, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no directive finding matching %q in %v", want, directive)
		}
	}
}

// TestSuiteRegistry: the multichecker exposes exactly the eight
// analyzers, each named and documented.
func TestSuiteRegistry(t *testing.T) {
	as := lint.Analyzers()
	if len(as) != 8 {
		t.Fatalf("Analyzers() returned %d analyzers, want 8", len(as))
	}
	want := map[string]bool{
		"floatcmp": true, "lockorder": true,
		"nilstrategy": true, "errflow": true, "lockheld": true,
		"goroutineleak": true, "waitgroup": true, "hotalloc": true,
	}
	for _, a := range as {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
		delete(want, a.Name)
	}
	for name := range want {
		t.Errorf("missing analyzer %q", name)
	}
}

// TestRunOnCleanTree: the full suite over the real module must be clean —
// this is the make lint gate in test form.
func TestRunOnCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-tree lint in -short mode")
	}
	findings, _, err := lint.Run(".", []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
