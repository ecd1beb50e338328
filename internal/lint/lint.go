// Package lint is the medalint analyzer suite: domain-specific static
// checks that guard the invariants the synthesis engine's correctness
// argument rests on (Sec. VI-C's SMG→MDP reduction and the concurrent
// routing paths of Alg. 3). The eight default analyzers are
//
//	floatcmp      — no raw ==/!= on floating-point probabilities, forces or
//	                values outside approved epsilon helpers
//	lockorder     — mutexes in sched/synth are acquired in one global order
//	nilstrategy   — a policy produced by a lookup reporting !ok must not
//	                flow to a use without an ok/nil check on the path
//	errflow       — an error assigned to a variable must be checked before
//	                it is overwritten or the function returns
//	lockheld      — no potentially blocking call (channel op, WaitGroup
//	                wait, or a call that may reach one) while a mutex is held
//	goroutineleak — goroutines must not block forever on channels with no
//	                counterpart operation and no escape hatch
//	waitgroup     — no WaitGroup.Add inside the goroutine it counts
//	hotalloc      — functions declaring //meda:hotpath must not reach heap
//	                allocations, interface boxing, closures, defer, or map
//	                iteration, however many call frames down
//
// (errflowstrict, the ninth, joins under -strict.) floatcmp, lockorder
// and waitgroup are syntactic, single-pass checks; nilstrategy, errflow
// and lockheld are flow-sensitive: each builds a per-function
// control-flow graph (internal/lint/cfg) and solves a dataflow problem
// over it (internal/lint/dataflow). goroutineleak and hotalloc are
// interprocedural: they build the package call graph
// (internal/lint/callgraph) and consume bottom-up function summaries
// (internal/lint/summary) that cross package boundaries as analysis facts —
// the driver analyzes packages in dependency order sharing one
// analysis.FactStore, so a send three frames deep in an upstream package
// still registers at the call site downstream.
//
// Value ranges, chip-state isolation, determinism and channel-close
// ownership have no analyzer: probabilities outside [0,1] and
// out-of-range grid indexes are caught by the model checks
// (internal/modelcheck, medalint -models) and the tests; live chip state
// read from another goroutine by the race detector; nondeterminism in the
// replayed paths by the golden, fault-trace, checkpoint-digest, cache-key
// and canonicalization tests; and a second or receiver-side close by the
// tests' panics. DESIGN.md §7 records the seeded bug behind each verdict.
//
// A finding can be suppressed at the site with a directive comment
//
//	//lint:ignore <analyzer> <reason>
//
// on the finding's line or the line above it. The directive itself is
// checked: an unknown analyzer name, a missing reason, or a directive that
// suppresses nothing is reported under the pseudo-analyzer "directive", so
// stale suppressions rot visibly instead of silently.
//
// Each analyzer follows the go/analysis contract of internal/lint/analysis
// and is exercised by an analysistest golden package under testdata/.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"time"

	"meda/internal/lint/analysis"
)

// Analyzers returns the full medalint suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		FloatCmp, LockOrder,
		NilStrategy, ErrFlow, LockHeld,
		GoroutineLeak, WaitGroup, HotAlloc,
	}
}

// Finding is one diagnostic resolved to a file position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the finding the way compilers do, so editors can jump to
// it.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Timing is the wall-clock cost of one analyzer summed over every package
// it ran on.
type Timing struct {
	Analyzer string
	Seconds  float64
}

// ignoreRE matches a suppression directive comment. The analyzer name is
// mandatory; the reason is validated separately so its absence can carry a
// dedicated diagnostic.
var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(\S+)[ \t]*(.*)$`)

// directive is one parsed //lint:ignore comment.
type directive struct {
	analyzer string
	reason   string
	file     string
	line     int
	pos      token.Position
	used     bool
}

// collectDirectives parses the suppression directives of one package.
func collectDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	var out []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, &directive{
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
					file:     pos.Filename,
					line:     pos.Line,
					pos:      pos,
				})
			}
		}
	}
	return out
}

// suppresses reports whether the directive covers a finding: same analyzer,
// same file, on the directive's line or the one below it (the conventional
// comment-above-the-statement placement).
func (d *directive) suppresses(f Finding) bool {
	return d.analyzer == f.Analyzer && d.file == f.Pos.Filename &&
		(f.Pos.Line == d.line || f.Pos.Line == d.line+1)
}

// applyDirectives filters suppressed findings out and appends "directive"
// findings for suppressions that are malformed (unknown analyzer, missing
// reason) or dead (suppress nothing). known is the full analyzer registry —
// a directive for a registered analyzer that simply isn't part of this run
// (errflowstrict outside -strict) is left alone rather than called unknown,
// and its usedness is only judged when its analyzer actually ran.
func applyDirectives(findings []Finding, directives []*directive, known, ran map[string]bool) []Finding {
	if len(directives) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, d := range directives {
			if d.suppresses(f) {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for _, d := range directives {
		switch {
		case !known[d.analyzer]:
			kept = append(kept, Finding{
				Analyzer: "directive",
				Pos:      d.pos,
				Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", d.analyzer),
			})
		case d.reason == "":
			kept = append(kept, Finding{
				Analyzer: "directive",
				Pos:      d.pos,
				Message:  fmt.Sprintf("//lint:ignore %s has no reason: say why the finding is acceptable", d.analyzer),
			})
		case !d.used && ran[d.analyzer]:
			kept = append(kept, Finding{
				Analyzer: "directive",
				Pos:      d.pos,
				Message:  fmt.Sprintf("//lint:ignore %s suppresses nothing: remove the stale directive", d.analyzer),
			})
		}
	}
	return kept
}

// Run loads every package matched by the patterns (relative to a directory
// inside the module), applies the analyzers, and returns all findings
// sorted by position plus per-analyzer wall-clock timing sorted by
// decreasing cost. Packages are analyzed from source in dependency order
// (imports first) sharing one fact store, so fact-consuming analyzers like
// lockheld and the summary-based interprocedural checks see what upstream
// passes exported. Suppression directives are applied per package: they
// only ever suppress findings of their own files. Packages that fail to
// load abort the run: the suite lints only code that compiles.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, []Timing, error) {
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, nil, err
	}
	metas, err := loader.PackagesInDependencyOrder(patterns...)
	if err != nil {
		return nil, nil, err
	}
	facts := analysis.NewFactStore()
	known := map[string]bool{"directive": true, ErrFlowStrict.Name: true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}

	seconds := make(map[string]float64, len(analyzers))
	var findings []Finding
	for _, m := range metas {
		pkg, err := loader.LoadDir(m.Dir)
		if err != nil {
			return nil, nil, err
		}
		var pkgFindings []Finding
		for _, a := range analyzers {
			a := a
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     facts,
				Report: func(diag analysis.Diagnostic) {
					pkgFindings = append(pkgFindings, Finding{
						Analyzer: a.Name,
						Pos:      pkg.Fset.Position(diag.Pos),
						Message:  diag.Message,
					})
				},
			}
			start := time.Now()
			err := a.Run(pass)
			seconds[a.Name] += time.Since(start).Seconds()
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		directives := collectDirectives(pkg.Fset, pkg.Files)
		findings = append(findings, applyDirectives(pkgFindings, directives, known, ran)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, Timing{Analyzer: a.Name, Seconds: seconds[a.Name]})
	}
	sort.Slice(timings, func(i, j int) bool {
		if timings[i].Seconds > timings[j].Seconds {
			return true
		}
		if timings[i].Seconds < timings[j].Seconds {
			return false
		}
		return timings[i].Analyzer < timings[j].Analyzer
	})
	return findings, timings, nil
}
