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

func TestFloatCmp(t *testing.T)     { analysistest.Run(t, testdata("floatcmp"), lint.FloatCmp) }
func TestChipAccess(t *testing.T)   { analysistest.Run(t, testdata("chipaccess"), lint.ChipAccess) }
func TestLockOrder(t *testing.T)    { analysistest.Run(t, testdata("lockorder"), lint.LockOrder) }
func TestNilStrategy(t *testing.T)  { analysistest.Run(t, testdata("nilstrategy"), lint.NilStrategy) }
func TestErrFlow(t *testing.T)      { analysistest.Run(t, testdata("errflow"), lint.ErrFlow) }
func TestSnapshotFlow(t *testing.T) { analysistest.Run(t, testdata("snapshotflow"), lint.SnapshotFlow) }
func TestLockHeld(t *testing.T)     { analysistest.Run(t, testdata("lockheld"), lint.LockHeld) }

func TestDetPure(t *testing.T) { analysistest.Run(t, testdata("detpure"), lint.DetPure) }
func TestGoroutineLeak(t *testing.T) {
	analysistest.Run(t, testdata("goroutineleak"), lint.GoroutineLeak)
}
func TestChanProtocol(t *testing.T) { analysistest.Run(t, testdata("chanprotocol"), lint.ChanProtocol) }

func TestGridBounds(t *testing.T) { analysistest.Run(t, testdata("gridbounds"), lint.GridBounds) }
func TestProbFlow(t *testing.T)   { analysistest.Run(t, testdata("probflow"), lint.ProbFlow) }
func TestHotAlloc(t *testing.T)   { analysistest.Run(t, testdata("hotalloc"), lint.HotAlloc) }

func TestErrFlowStrict(t *testing.T) {
	analysistest.Run(t, testdata("errflowstrict"), lint.ErrFlowStrict)
}

// TestStrictCmdAudit: the strict dropped-error analyzer must stay clean
// over every command main — the make lint gate for cmd/ in test form.
func TestStrictCmdAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping cmd audit in -short mode")
	}
	findings, err := lint.Run(".", []string{"./cmd/..."},
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
	findings, err := lint.Run(".", []string{
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
// summary provider/consumer golden pair: each of the three interprocedural
// analyzers has one finding in consumer that exists only because provider's
// FnSummary facts crossed the package boundary through the shared store.
func TestSummaryCrossPackageFacts(t *testing.T) {
	findings, err := lint.Run(".", []string{
		// Consumer-first on purpose: the driver must reorder on its own.
		"./internal/lint/testdata/summaryfacts/consumer",
		"./internal/lint/testdata/summaryfacts/provider",
	}, []*analysis.Analyzer{lint.DetPure, lint.GoroutineLeak, lint.ChanProtocol})
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := make(map[string]lint.Finding)
	for _, f := range findings {
		if !strings.HasSuffix(f.Pos.Filename, "consumer.go") {
			t.Errorf("finding at %s, want all findings inside consumer.go", f.Pos)
		}
		byAnalyzer[f.Analyzer] = f
	}
	if len(findings) != 3 || len(byAnalyzer) != 3 {
		t.Fatalf("got %d findings (%d analyzers), want 3 distinct: %v", len(findings), len(byAnalyzer), findings)
	}
	if f := byAnalyzer["detpure"]; !strings.Contains(f.Message, "time.Now via provider.Clock") {
		t.Errorf("detpure finding %q does not carry the cross-package witness chain", f.Message)
	}
	if f := byAnalyzer["goroutineleak"]; !strings.Contains(f.Message, "sends on ch") {
		t.Errorf("goroutineleak finding %q does not name the leaked send", f.Message)
	}
	if f := byAnalyzer["chanprotocol"]; !strings.Contains(f.Message, "already be closed") {
		t.Errorf("chanprotocol finding %q is not the double close", f.Message)
	}
}

// TestProbFlowCrossPackageFacts drives the full Run pipeline over the
// probflow provider/consumer golden pair: the finding in consumer exists
// only because provider's ProbRangeFact return ranges crossed the package
// boundary through the shared store.
func TestProbFlowCrossPackageFacts(t *testing.T) {
	findings, err := lint.Run(".", []string{
		// Consumer-first on purpose: the driver must reorder on its own.
		"./internal/lint/testdata/probflowfacts/consumer",
		"./internal/lint/testdata/probflowfacts/provider",
	}, []*analysis.Analyzer{lint.ProbFlow})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "probflow" {
		t.Errorf("finding analyzer = %q, want probflow", f.Analyzer)
	}
	if !strings.Contains(f.Message, "[0, 1.5]") {
		t.Errorf("finding message %q does not carry the imported return range", f.Message)
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
	findings, err := lint.Run(".", []string{
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

// TestIncrementalCacheWarmRun: the second run over the same tree must
// replay every package from the cache and produce byte-identical findings
// — including the cross-package fact-dependent ones, which exist on the
// warm run only because the cache re-injected the provider's facts.
func TestIncrementalCacheWarmRun(t *testing.T) {
	patterns := []string{
		"./internal/lint/testdata/probflowfacts/...",
		"./internal/lint/testdata/hotallocfacts/...",
		"./internal/lint/testdata/suppress",
	}
	analyzers := lint.Analyzers()
	opts := lint.Options{CacheDir: t.TempDir()}

	cold, _, coldStats, err := lint.RunOpts(".", patterns, analyzers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Hits != 0 {
		t.Errorf("cold run hit the cache %d times, want 0", coldStats.Hits)
	}
	warm, _, warmStats, err := lint.RunOpts(".", patterns, analyzers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Packages == 0 || warmStats.Hits != warmStats.Packages {
		t.Errorf("warm run reused %d/%d packages, want all", warmStats.Hits, warmStats.Packages)
	}
	uncached, err := lint.Run(".", patterns, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	render := func(fs []lint.Finding) string {
		var sb strings.Builder
		for _, f := range fs {
			sb.WriteString(f.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if render(warm) != render(cold) {
		t.Errorf("warm findings differ from cold:\ncold:\n%swarm:\n%s", render(cold), render(warm))
	}
	if render(cold) != render(uncached) {
		t.Errorf("cached findings differ from uncached:\nuncached:\n%scached:\n%s", render(uncached), render(cold))
	}
	// The fact-dependent findings must be present on the warm run.
	for _, want := range []string{"[0, 1.5]", "make via provider.Outer → Grow"} {
		found := false
		for _, f := range warm {
			if strings.Contains(f.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("warm run lost the fact-dependent finding %q", want)
		}
	}
}

// TestSuppressionDirectives: a reasoned //lint:ignore removes its finding;
// a reasonless, unknown-analyzer, or dead directive is itself a finding.
func TestSuppressionDirectives(t *testing.T) {
	findings, err := lint.Run(".", []string{"./internal/lint/testdata/suppress"}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var directive, chanprotocol []string
	for _, f := range findings {
		switch f.Analyzer {
		case "directive":
			directive = append(directive, f.Message)
		case "chanprotocol":
			chanprotocol = append(chanprotocol, f.Message)
		default:
			t.Errorf("unexpected %s finding: %s", f.Analyzer, f)
		}
	}
	// Only unknownAnalyzer's double close survives: the well-formed and the
	// reasonless directives both suppress theirs.
	if len(chanprotocol) != 1 {
		t.Errorf("got %d chanprotocol findings, want 1 (the misspelled directive suppresses nothing): %v",
			len(chanprotocol), chanprotocol)
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

// TestSuiteRegistry: the multichecker exposes exactly the thirteen
// analyzers, each named and documented.
func TestSuiteRegistry(t *testing.T) {
	as := lint.Analyzers()
	if len(as) != 13 {
		t.Fatalf("Analyzers() returned %d analyzers, want 13", len(as))
	}
	want := map[string]bool{
		"floatcmp": true, "chipaccess": true,
		"lockorder": true, "nilstrategy": true,
		"errflow": true, "snapshotflow": true, "lockheld": true,
		"detpure": true, "goroutineleak": true, "chanprotocol": true,
		"gridbounds": true, "probflow": true, "hotalloc": true,
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
	findings, err := lint.Run(".", []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
