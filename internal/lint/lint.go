// Package lint is the medalint analyzer suite: domain-specific static
// checks that guard the invariants the synthesis engine's correctness
// argument rests on (Sec. VI-C's SMG→MDP reduction and the concurrent
// routing paths of Alg. 3). The nine default analyzers are
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
//	detpure       — functions declaring //meda:deterministic must not reach
//	                a nondeterminism source, however many call frames down
//	goroutineleak — goroutines must not block forever on channels with no
//	                counterpart operation and no escape hatch
//	chanprotocol  — no double close, no close from the receiving side, no
//	                WaitGroup.Add inside the goroutine it counts
//	hotalloc      — functions declaring //meda:hotpath must not reach heap
//	                allocations, interface boxing, closures, defer, or map
//	                iteration, however many call frames down
//
// (errflowstrict, the tenth, joins under -strict.) floatcmp and lockorder
// are syntactic, single-pass checks; nilstrategy, errflow and lockheld are
// flow-sensitive: each builds a per-function control-flow graph
// (internal/lint/cfg) and solves a dataflow problem over it
// (internal/lint/dataflow). detpure, goroutineleak, chanprotocol, and
// hotalloc are interprocedural: they build the package call graph
// (internal/lint/callgraph) and consume bottom-up function summaries
// (internal/lint/summary) that cross package boundaries as analysis facts —
// the driver analyzes packages in dependency order sharing one
// analysis.FactStore, so a send three frames deep in an upstream package
// still registers at the call site downstream.
//
// Value ranges and chip-state isolation have no analyzer: probabilities
// outside [0,1] and out-of-range grid indexes are caught by the model
// checks (internal/modelcheck, medalint -models) and the tests, and live
// chip state read from another goroutine by the race detector.
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
	"runtime"
	"sort"
	"strings"
	"time"

	"meda/internal/lint/analysis"
	"meda/internal/lint/cache"
	"meda/internal/lint/summary"
)

// Analyzers returns the full medalint suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		FloatCmp, LockOrder,
		NilStrategy, ErrFlow, LockHeld,
		DetPure, GoroutineLeak, ChanProtocol,
		HotAlloc,
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

// Options configures a driver run.
type Options struct {
	// CacheDir roots the incremental analysis cache; empty disables
	// caching (every package is analyzed from source).
	CacheDir string
}

// CacheStats reports how much of a run came out of the incremental cache.
type CacheStats struct {
	// Packages is the number of matched packages.
	Packages int
	// Hits is how many of them were replayed from the cache.
	Hits int
}

// cacheSchema invalidates every cache entry when the shape of what is
// stored changes. Bump it whenever Entry, a fact type, or the finding
// pipeline changes meaning.
const cacheSchema = "medalint-cache-v1"

// init registers every fact type the suite exports, so cache entries can
// round-trip them through gob.
func init() {
	cache.RegisterFact(&MayBlock{})
	cache.RegisterFact(&summary.FnSummary{})
	cache.RegisterFact(&summary.AllocFacts{})
}

// Run loads every package matched by the patterns (relative to a directory
// inside the module) and applies the analyzers, returning all findings
// sorted by position. Packages are analyzed in dependency order (imports
// first) sharing one fact store, so fact-consuming analyzers like lockheld
// and the summary-based interprocedural checks see what upstream passes
// exported. Packages that fail to load abort the run: the suite lints only
// code that compiles.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	findings, _, err := RunTimed(dir, patterns, analyzers)
	return findings, err
}

// RunTimed is Run plus per-analyzer wall-clock timing, sorted by decreasing
// cost. Neither Run nor RunTimed uses the incremental cache; RunOpts does,
// when given a cache directory.
func RunTimed(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, []Timing, error) {
	findings, timings, _, err := RunOpts(dir, patterns, analyzers, Options{})
	return findings, timings, err
}

// RunOpts is the full driver: analyze in dependency order, share facts,
// apply suppression directives, and — when opts.CacheDir is set — replay
// unchanged packages from the incremental cache instead of re-analyzing
// them. A package's key covers its sources, every module-internal package
// it transitively imports, the toolchain version, and the analyzer roster;
// a hit replays the package's findings and re-injects the facts it had
// exported, so downstream packages analyze exactly as they would have on a
// cold run. Cache failures of any kind degrade to analysis, never to
// errors.
func RunOpts(dir string, patterns []string, analyzers []*analysis.Analyzer, opts Options) ([]Finding, []Timing, CacheStats, error) {
	var stats CacheStats
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	metas, closure, err := loader.PackagesInDependencyOrder(patterns...)
	if err != nil {
		return nil, nil, stats, err
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

	var store *cache.Cache
	var keys map[string]string
	if opts.CacheDir != "" {
		if store, err = cache.Open(opts.CacheDir); err != nil {
			store = nil // degrade to uncached
		} else {
			keys = cacheKeys(closure, analyzers)
		}
	}

	seconds := make(map[string]float64, len(analyzers))
	var findings []Finding
	stats.Packages = len(metas)
	for _, m := range metas {
		key := ""
		if store != nil {
			key = keys[m.Path]
		}
		if key != "" {
			if e, ok := store.Load(key); ok {
				stats.Hits++
				for _, f := range e.Findings {
					findings = append(findings, Finding{
						Analyzer: f.Analyzer,
						Pos: token.Position{
							Filename: f.File, Offset: f.Offset,
							Line: f.Line, Column: f.Column,
						},
						Message: f.Message,
					})
				}
				for _, r := range e.ObjectFacts {
					facts.InjectObjectFact(r.Key, r.Fact)
				}
				for _, f := range e.PackageFacts {
					facts.InjectPackageFact(m.Path, f)
				}
				continue
			}
		}
		pkg, err := loader.LoadDir(m.Dir)
		if err != nil {
			return nil, nil, stats, err
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
				return nil, nil, stats, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		// Directives suppress findings of their own files only, so applying
		// them per package is equivalent to a whole-run application — and it
		// makes the package's post-suppression findings a cacheable unit.
		directives := collectDirectives(pkg.Fset, pkg.Files)
		pkgFindings = applyDirectives(pkgFindings, directives, known, ran)
		findings = append(findings, pkgFindings...)
		if key != "" {
			e := &cache.Entry{
				ObjectFacts:  facts.ObjectFactsOf(m.Path),
				PackageFacts: facts.PackageFactsOf(m.Path),
			}
			for _, f := range pkgFindings {
				e.Findings = append(e.Findings, cache.Finding{
					Analyzer: f.Analyzer,
					File:     f.Pos.Filename, Offset: f.Pos.Offset,
					Line: f.Pos.Line, Column: f.Pos.Column,
					Message: f.Message,
				})
			}
			// A failed store only forfeits the speedup.
			_ = store.Store(key, e)
		}
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
	return findings, timings, stats, nil
}

// cacheKeys computes every matched package's cache key bottom-up over the
// module-internal import closure. A package whose sources (or any
// transitive internal dependency's sources) cannot be hashed gets no key
// and is analyzed from source.
func cacheKeys(closure map[string]*analysis.PkgMeta, analyzers []*analysis.Analyzer) map[string]string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	salt := cache.Salt(append([]string{cacheSchema, runtime.Version()}, names...)...)

	keys := make(map[string]string, len(closure))
	visiting := make(map[string]bool, len(closure))
	var keyOf func(path string) string
	keyOf = func(path string) string {
		if k, ok := keys[path]; ok {
			return k
		}
		m, ok := closure[path]
		if !ok || visiting[path] {
			return "" // external (salted by toolchain version) or a cycle
		}
		visiting[path] = true
		defer delete(visiting, path)
		src, err := cache.HashFiles(m.Dir, m.GoFiles)
		if err != nil {
			keys[path] = ""
			return ""
		}
		deps := make(map[string]string)
		for _, imp := range m.Imports {
			if dm, ok := closure[imp]; ok {
				dk := keyOf(dm.Path)
				if dk == "" {
					keys[path] = ""
					return ""
				}
				deps[imp] = dk
			}
		}
		k := cache.Key(salt, path, src, deps)
		keys[path] = k
		return k
	}
	for path := range closure {
		keyOf(path)
	}
	return keys
}
