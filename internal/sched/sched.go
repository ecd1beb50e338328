// Package sched provides the routing-strategy providers used by the hybrid
// scheduler of Sec. VI-D (Alg. 3): the degradation-unaware baseline router
// of Sec. VII-A and the adaptive router that synthesizes strategies from the
// current health matrix, backed by an offline library of strategies
// pre-synthesized under the no-degradation assumption.
package sched

import (
	"errors"
	"sync"

	"meda/internal/action"
	"meda/internal/baseline"
	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/synth"
)

// ErrInjectedTimeout is the error an injected control-plane fault surfaces
// as: the synthesis "timed out" before producing a strategy. Callers treat
// it like any other synthesis failure; the Fallback router retries and then
// degrades.
var ErrInjectedTimeout = errors.New("sched: injected synthesis timeout")

// FaultInjector is the control-plane fault source consulted by the adaptive
// router (implemented by internal/fault's Injector; sched declares the
// interface locally to keep the dependency pointing into sched). Both
// methods must be pure functions of their arguments, so that a replayed
// execution draws the same faults, and safe for concurrent calls: an
// Adaptive router may be shared by several goroutines.
type FaultInjector interface {
	// SynthTimeout reports whether the attempt-th online synthesis for the
	// keyed job should fail with ErrInjectedTimeout.
	SynthTimeout(key uint64, attempt int) bool
	// CachePoison reports whether a strategy store under the keyed cache
	// line should be discarded (a poisoned line), forcing re-synthesis on
	// the next request.
	CachePoison(key uint64) bool
}

// FaultAware is implemented by routers that accept a control-plane fault
// injector.
type FaultAware interface {
	SetFaultInjector(FaultInjector)
}

// DegradedRouter is implemented by routers that offer a cheaper, more
// conservative routing mode for jobs the simulator has marked degraded
// (repeated divergence between planned and observed droplet state). The
// Fallback router serves these directly from its final-tier router.
type DegradedRouter interface {
	RouteDegraded(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error)
}

// Router produces a routing strategy for a job under the current biochip
// condition, returning the policy and its predicted cost in cycles (+Inf
// when no strategy exists is signaled by an error instead, to keep callers
// honest).
type Router interface {
	// Name identifies the router in experiment output.
	Name() string
	// HealthAware reports whether strategies depend on the health matrix
	// (and therefore must be refreshed when health changes).
	HealthAware() bool
	// Route computes the strategy for the job. obstacles lists regions
	// (other droplets resting on the array, already margin-expanded) the
	// route must avoid.
	Route(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error)
}

// Baseline is the shortest-path router: it minimizes distance traveled and
// never consults microelectrode health.
type Baseline struct {
	Model smg.ModelOptions
}

// NewBaseline returns the baseline router with the default action alphabet.
func NewBaseline() *Baseline {
	return &Baseline{Model: smg.DefaultModelOptions()}
}

// Name implements Router.
func (b *Baseline) Name() string { return "baseline" }

// HealthAware implements Router: the baseline ignores health.
func (b *Baseline) HealthAware() bool { return false }

// Route implements Router via breadth-first shortest path.
func (b *Baseline) Route(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error) {
	rj = synth.NormalizeDispense(rj, c.W(), c.H())
	opt := b.Model
	opt.Blocked = obstacles
	policy, cycles, err := baseline.ShortestPath(rj, opt)
	if err != nil {
		return synth.Policy{}, 0, err
	}
	return policy, float64(cycles), nil
}

// libKey is the D4-canonical form of a routing job; two jobs with the same
// key have equivalent strategies under the no-degradation assumption, up to
// the translation/rotation/reflection that relates them.
type libKey struct {
	start, goal, hazard geom.Rect
}

type libEntry struct {
	policy synth.Policy
	value  float64
}

// Library is the offline strategy store of Alg. 3: strategies synthesized
// assuming full health, keyed by the job's canonical geometry. It is safe
// for concurrent use: concurrent Route callers share it.
type Library struct {
	mu      sync.Mutex
	entries map[libKey]libEntry
	hits    int
	misses  int
	// gen counts mutations (Store and Load merges). Persistence layers
	// poll it to decide whether a snapshot of the library is stale; see
	// Generation.
	gen uint64
}

// NewLibrary returns an empty strategy library.
func NewLibrary() *Library {
	return &Library{entries: make(map[libKey]libEntry)}
}

// canonical maps the job to its D4-canonical form (synth.Canonicalize):
// hazard at origin, dihedral element chosen to minimize the geometry tuple.
// Sound for the library because its strategies assume a fully healthy —
// hence uniform — window.
func canonical(rj route.RJ) (libKey, synth.Transform) {
	crj, tf := synth.Canonicalize(rj)
	return libKey{start: crj.Start, goal: crj.Goal, hazard: crj.Hazard}, tf
}

// Lookup returns the stored strategy mapped back to the job's actual
// position and orientation, or ok=false on a miss.
func (l *Library) Lookup(rj route.RJ) (synth.Policy, float64, bool) {
	key, tf := canonical(rj)
	l.mu.Lock()
	e, ok := l.entries[key]
	if !ok {
		l.misses++
		l.mu.Unlock()
		telLibMisses.Inc()
		return synth.Policy{}, 0, false
	}
	l.hits++
	l.mu.Unlock()
	telLibHits.Inc()
	return tf.InvertPolicy(e.policy), e.value, true
}

// Store records a strategy synthesized under the no-degradation assumption.
func (l *Library) Store(rj route.RJ, p synth.Policy, value float64) {
	key, tf := canonical(rj)
	e := libEntry{policy: tf.ApplyPolicy(p), value: value}
	l.mu.Lock()
	l.entries[key] = e
	l.gen++
	l.mu.Unlock()
}

// Generation returns a counter that increments on every mutation (Store or
// Load). A persistence layer that recorded the generation at its last Save
// can skip re-serializing an unchanged library:
//
//	if lib.Generation() != lastSaved { lib.Save(w); lastSaved = lib.Generation() }
//
// The counter is monotone within a process and carries no meaning across
// processes.
func (l *Library) Generation() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Stats returns (hits, misses, size).
func (l *Library) Stats() (hits, misses, size int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses, len(l.entries)
}

// RegionInvalidator is a retired interface: no router implements it and
// nothing calls it. The strategy cache needs no eager invalidation (its
// keys carry the region's health hash, and the LRU bound reclaims dead
// entries), so the simulator no longer evicts on health changes. Like
// Prefetcher, the declaration stays only because the loopbench
// benchmark's router_test.go names it.
type RegionInvalidator interface {
	// InvalidateRegion removes cached strategies whose hazard bounds
	// intersect region, returning how many were dropped.
	InvalidateRegion(region geom.Rect) int
}

// Prefetcher is a retired interface: no router implements it and nothing
// calls it. The declaration stays only because the loopbench benchmark's
// router_test.go names it in a method-set probe, and benchmark code is
// changed only together with the benchmark.
type Prefetcher interface {
	// Prefetch starts a background synthesis for rj under the chip's
	// current health, reporting whether a worker picked it up. The call
	// itself never blocks on synthesis.
	Prefetch(rj route.RJ, c *chip.Chip) bool
	// Drain blocks until every accepted prefetch has finished.
	Drain()
}

// Adaptive is the paper's router: Alg. 2 synthesis from the observed health
// matrix, with the hybrid offline library shortcut of Alg. 3 — when every
// microelectrode in the job's hazard bounds still reads fully healthy, the
// pre-synthesized (or memoized) healthy-chip strategy is reused. Degraded
// or obstructed windows go through the health- and obstacle-keyed strategy
// Cache.
type Adaptive struct {
	Opt synth.Options
	// Lib serves all-healthy, unobstructed windows. Cache memoizes the
	// strategies of every other window, keyed by job geometry, option
	// fingerprint, the hazard region's health hash and its obstacle
	// signature. Route requires both: NewAdaptive sets them, as does every
	// router built around shared stores (a fleet's chips share one pair).
	Lib   *Library
	Cache *Cache

	// Syntheses counts online synthesis runs (library and cache misses);
	// LibraryUses counts strategies served from the library; CacheHits counts
	// strategies served from Cache. Increments are guarded by mu, so that
	// several goroutines may share the router, but reads are plain field
	// access: sample them only after routing has quiesced.
	Syntheses   int
	LibraryUses int
	CacheHits   int

	mu sync.Mutex
	// faults is the optional control-plane fault injector; attempts counts
	// per-key synthesis attempts so injected timeouts draw independently per
	// retry. Both guarded by mu.
	faults   FaultInjector
	attempts map[CacheKey]int
}

// SetFaultInjector implements FaultAware. Passing nil detaches. Attempt
// counters are scoped to the injector's lifetime: attaching resets them, so
// an execution replayed with a fresh runner (the fleet service's resume
// path) draws the same injected-fault decisions as the original run.
func (a *Adaptive) SetFaultInjector(f FaultInjector) {
	a.mu.Lock()
	a.faults = f
	a.attempts = nil
	a.mu.Unlock()
}

func (a *Adaptive) injector() FaultInjector {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.faults
}

// injectTimeout consults the fault injector before an online synthesis for
// key, returning ErrInjectedTimeout when the attempt should fail. Each call
// advances the window's attempt counter, so a caller that retries draws a
// fresh decision. The counter, like Hash, ignores key.Obstacles: an
// obstructed window draws from the same sequence whatever rests around it.
func (a *Adaptive) injectTimeout(key CacheKey) error {
	key.Obstacles = 0
	a.mu.Lock()
	f := a.faults
	if f == nil {
		a.mu.Unlock()
		return nil
	}
	if a.attempts == nil {
		a.attempts = make(map[CacheKey]int)
	}
	attempt := a.attempts[key]
	a.attempts[key] = attempt + 1
	a.mu.Unlock()
	if f.SynthTimeout(key.Hash(), attempt) {
		telSynthTimeouts.Inc()
		return ErrInjectedTimeout
	}
	return nil
}

// poisoned reports whether a strategy store under key should be discarded.
func (a *Adaptive) poisoned(key CacheKey) bool {
	f := a.injector()
	if f != nil && f.CachePoison(key.Hash()) {
		telCachePoisoned.Inc()
		return true
	}
	return false
}

// NewAdaptive returns the adaptive router with the paper's default query
// (Rmin), a fresh library, and a strategy cache bounded by DefaultCacheSize
// entries. Routing is synchronous and deterministic.
func NewAdaptive() *Adaptive {
	return &Adaptive{Opt: synth.DefaultOptions(), Lib: NewLibrary(), Cache: NewCache(DefaultCacheSize)}
}

// Name implements Router.
func (a *Adaptive) Name() string { return "adaptive" }

// HealthAware implements Router.
func (a *Adaptive) HealthAware() bool { return true }

// bump increments one of the exported effectiveness counters under mu.
func (a *Adaptive) bump(counter *int) {
	a.mu.Lock()
	*counter++
	a.mu.Unlock()
}

// Route implements Router. An all-healthy, unobstructed window is served
// from the Library. Every other window goes through the Cache, keyed on its
// own position, region health hash and obstacle signature
// (ObstacleSignature): obstacles are keyed as exactly as health, so a
// congruent chip meeting the same droplets around the same window — a fleet
// tenant one job behind another — is served the strategy instead of
// re-solving it.
func (a *Adaptive) Route(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error) {
	rj = synth.NormalizeDispense(rj, c.W(), c.H())
	key := NewCacheKey(rj, a.Opt, c.HealthHash(rj.Hazard))
	if len(obstacles) == 0 && c.Healthy(rj.Hazard) {
		return a.serve(key, &a.LibraryUses,
			func() (synth.Policy, float64, bool) { return a.Lib.Lookup(rj) },
			func(p synth.Policy, v float64) { a.Lib.Store(rj, p, v) },
			rj, func(x, y int) float64 { return 1 }, a.Opt, true)
	}
	key.Obstacles = ObstacleSignature(rj.Hazard, obstacles)
	opt := a.Opt
	opt.Model.Blocked = obstacles
	lookup := func() (synth.Policy, float64, bool) {
		p, v, ok := a.Cache.Lookup(key)
		if !ok {
			return synth.Policy{}, 0, false
		}
		telRawHits.Inc()
		return p, v, true
	}
	store := func(p synth.Policy, v float64) { a.Cache.Store(key, p, v) }
	return a.serve(key, &a.CacheHits, lookup, store, rj, c.ObservedForceField(), opt, false)
}

// serve returns rj's strategy from one strategy store, counting the hit in
// hits, or on a miss synthesizes it under field and opt and stores it if
// it exists and key is not poisoned. key is the fault-injection and poison
// key. canon reports that the store is keyed on D4-canonical geometry (the
// Library), which the medacheck build needs to re-derive a hit
// (assertServed).
func (a *Adaptive) serve(key CacheKey, hits *int, lookup func() (synth.Policy, float64, bool),
	store func(synth.Policy, float64), rj route.RJ, field action.ForceField, opt synth.Options, canon bool) (synth.Policy, float64, error) {
	if p, v, ok := lookup(); ok {
		assertServed(rj, field, opt, canon, p, v)
		a.bump(hits)
		return p, v, nil
	}
	res, err := a.synthesize(key, rj, field, opt)
	if err != nil {
		return synth.Policy{}, 0, err
	}
	if res.Exists() && !a.poisoned(key) {
		store(res.Policy, res.Value)
	}
	return res.Policy, res.Value, nil
}

// synthesize runs one online synthesis, unless the fault injector times out
// this attempt for key, and counts it.
func (a *Adaptive) synthesize(key CacheKey, rj route.RJ, field action.ForceField, opt synth.Options) (synth.Result, error) {
	if err := a.injectTimeout(key); err != nil {
		return synth.Result{}, err
	}
	res, err := synth.Synthesize(rj, field, opt)
	if err != nil {
		return synth.Result{}, err
	}
	a.bump(&a.Syntheses)
	telOnlineSyntheses.Inc()
	return res, nil
}
