// Package telemetry is the repository's observability layer: lock-free
// counters, gauges and fixed-bucket histograms with a JSON Snapshot, plus a
// lightweight span tracer (trace.go). The synthesis/scheduling/simulation
// stack is instrumented against the package-level default registry, so a
// process can expose everything it did — value-iteration sweeps, cache
// hits, re-syntheses, simulation cycles — through one snapshot
// (cmd/medad's /metrics endpoint, medabench's report) without threading a
// registry through every call site.
//
// All metric updates are single atomic operations; the hot paths (a Bellman
// sweep, a cache lookup) pay one uncontended atomic add. Metrics are
// process-wide monotone (counters), last-write-wins (gauges) or
// distributional (histograms); none of them consume randomness or otherwise
// perturb the instrumented code, which the simulator's determinism
// regression test relies on.
//
// The package is stdlib-only, like the rest of the module (DESIGN.md §11).
package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotone; this is
// not enforced, mirroring expvar).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge (set/add semantics, last write wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds named metrics. Lookup is get-or-create; the maps are
// guarded by a mutex but each returned metric updates lock-free, so
// instrumented packages resolve their metrics once into package variables
// and never touch the registry again on the hot path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (see NewHistogram). The bounds of an existing
// histogram are not changed — the first registration wins.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry, shaped
// for JSON encoding (the /metrics endpoint and medabench's report embed it
// verbatim).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// Handler serves the registry's Snapshot as indented JSON — the expvar-style
// /metrics endpoint of cmd/medad.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding a just-taken snapshot of plain values cannot fail.
		_ = enc.Encode(r.Snapshot())
	})
}

// std is the process-wide default registry the stack is instrumented
// against.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// C returns a counter from the default registry.
func C(name string) *Counter { return std.Counter(name) }

// G returns a gauge from the default registry.
func G(name string) *Gauge { return std.Gauge(name) }

// H returns a histogram from the default registry.
func H(name string, bounds ...float64) *Histogram { return std.Histogram(name, bounds...) }
