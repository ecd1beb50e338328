// Package exp contains one driver per table and figure of the paper's
// evaluation, each regenerating the corresponding rows or series from the
// simulation substrate. The drivers are deterministic given a seed; the
// cmd/medaexp tool renders them as text tables, and the repository-level
// benchmarks wrap them for `go test -bench`.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Fig2      — MC sensing waveforms and 2-bit codes
//	Fig3      — actuation correlation vs Manhattan distance
//	Fig5      — electrode capacitance growth (charge trapping / residual)
//	Fig6      — relative EWOD force decay and model fit
//	Fig7      — degradation D and observed health H vs actuation count
//	TableIV   — MO → RJ decomposition of the running example
//	Fig15     — probability of successful completion vs k_max
//	Fig16     — mean cycles under fault injection
//	TableV    — synthesis model sizes and runtimes
package exp

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"

	"meda/internal/fault"
	"meda/internal/geom"
	"meda/internal/sched"
	"meda/internal/sim"
)

// Strategy-cache bound for the drivers' adaptive routers, set once from
// command-line flags before any experiment runs (not safe to change
// mid-experiment). Negative keeps the default bound; 0 disables the cache.
var routerCacheSize = -1

// SetCacheSize bounds the strategy cache of every adaptive router the
// experiment drivers build (0 disables it, negative keeps the default).
// Call before running any driver.
func SetCacheSize(cacheSize int) {
	routerCacheSize = cacheSize
}

// Concurrent-executor selection for the drivers, set once from command-line
// flags before any experiment runs.
var concurrentExec bool

// SetConcurrent makes every subsequent experiment driver execute assays on
// the concurrent executor (all ready operations routed at once) instead of
// the sequential one-hazard-zone-at-a-time path. Call before running any
// driver.
func SetConcurrent(on bool) {
	concurrentExec = on
}

// Soft-fault injection for the drivers, set once from command-line flags
// before any experiment runs. The zero plan disables injection.
var faultPlan fault.Plan

// SetFaultInjection enables seed-driven soft-fault injection (actuation,
// sensing, control-plane) for every subsequent experiment driver. Drivers
// pick the plan up through baseSimConfig, and adaptiveRouter wraps routers
// in the graceful-degradation ladder so injected synthesis failures fall
// back instead of aborting. Call before running any driver.
func SetFaultInjection(p fault.Plan) {
	faultPlan = p
}

// baseSimConfig is the simulation config every driver starts from: the
// defaults, plus the configured soft-fault plan when injection is enabled.
func baseSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Concurrent = concurrentExec
	if faultPlan.Enabled() {
		cfg = cfg.WithFaults(faultPlan)
	}
	return cfg
}

// adaptiveRouter builds an adaptive router with the configured cache bound,
// plus the degradation ladder: under fault injection the adaptive router is
// wrapped in a Fallback so injected synthesis timeouts retry and then fall
// back to the baseline router.
func adaptiveRouter() sched.Router {
	a := sched.NewAdaptive(routerCacheSize)
	if faultPlan.Enabled() {
		return sched.NewFallback(a, sched.NewBaseline())
	}
	return a
}

// newTable returns a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// fprintf writes one formatted row, ignoring write errors (experiment
// renderers write to in-memory or terminal sinks).
func fprintf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}

// parallelTrials runs fn(0..n-1) on up to GOMAXPROCS workers. Each trial
// must be self-contained (its own chip, router and random stream); results
// are written into caller-owned, trial-indexed slots so aggregation stays
// deterministic. The first error wins.
func parallelTrials(n int, fn func(trial int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

// geomRect is a shorthand for building rectangles in experiment drivers.
func geomRect(xa, ya, xb, yb int) geom.Rect {
	return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb}
}
