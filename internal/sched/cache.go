package sched

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/synth"
)

// DefaultCacheSize bounds the strategy cache of NewAdaptive.
const DefaultCacheSize = 256

// CacheKey identifies one synthesized strategy: the job's geometry, a
// fingerprint of the synthesis options (query, action alphabet, solver),
// and the hash of the observed health codes inside the job's hazard bounds.
// Keying on the region's health hash makes the cache exactly as fresh as
// Alg. 3 requires: any degradation inside the region changes the key (a
// miss), while degradation elsewhere on the chip leaves it untouched (a
// hit).
//
// Keys come in two forms. FormRaw keys carry the job's actual chip
// coordinates and the full health hash — one entry per position. FormCanon
// keys carry the D4-canonical geometry (synth.Canonicalize) and the
// window's uniform health code — one entry per *shape*, shared by every
// translated, rotated, or reflected image of the job anywhere on the chip.
// The two namespaces never collide: Form participates in equality and Hash.
type CacheKey struct {
	Start, Goal, Hazard geom.Rect
	Opts                uint64
	Health              uint64
	Form                uint8
}

// CacheKey forms.
const (
	// FormRaw keys on the job's actual position and the region's exact
	// health hash.
	FormRaw uint8 = iota
	// FormCanon keys on the D4-canonical geometry and a uniform health
	// code; valid only for jobs whose window health is uniform.
	FormCanon
)

// NewCacheKey builds the raw-form key for a job under the given options and
// region health hash (typically chip.HealthHash(rj.Hazard)). The rj must
// already be dispense-normalized. Obstacle lists are deliberately not part
// of the key: obstacles are transient droplet positions, and the router
// bypasses the cache whenever they are present.
func NewCacheKey(rj route.RJ, opt synth.Options, health uint64) CacheKey {
	return CacheKey{
		Start:  rj.Start,
		Goal:   rj.Goal,
		Hazard: rj.Hazard,
		Opts:   fingerprintOptions(opt),
		Health: health,
	}
}

// NewCanonicalCacheKey builds the canonical-form key for a job whose hazard
// window reads a uniform health code, returning the key and the transform
// from job coordinates to canonical coordinates (needed to de-canonicalize
// a cached policy on lookup, and to canonicalize a fresh one on store).
func NewCanonicalCacheKey(rj route.RJ, opt synth.Options, code int) (CacheKey, synth.Transform) {
	crj, tf := synth.Canonicalize(rj)
	return CacheKey{
		Start:  crj.Start,
		Goal:   crj.Goal,
		Hazard: crj.Hazard,
		Opts:   fingerprintOptions(opt),
		Health: uint64(code),
		Form:   FormCanon,
	}, tf
}

// Hash folds the key into 64 bits — the identity handed to a FaultInjector,
// which must not depend on sched's internal key layout.
func (k CacheKey) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range []geom.Rect{k.Start, k.Goal, k.Hazard} {
		word(uint64(uint32(r.XA))<<32 | uint64(uint32(r.YA)))
		word(uint64(uint32(r.XB))<<32 | uint64(uint32(r.YB)))
	}
	word(k.Opts)
	word(k.Health)
	word(uint64(k.Form))
	return h.Sum64()
}

// fingerprintOptions hashes the solver-relevant option fields. Method is
// excluded: every solver method converges to the same optimal values, so
// strategies are interchangeable across them.
func fingerprintOptions(opt synth.Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(opt.Query.String()))
	word(math.Float64bits(opt.Model.MaxAspect))
	word(math.Float64bits(opt.Model.ActionCost))
	flags := uint64(0)
	if opt.Model.AllowMorph {
		flags |= 1
	}
	if opt.Model.AllowDouble {
		flags |= 2
	}
	if opt.Model.AllowOrdinal {
		flags |= 4
	}
	word(flags)
	word(math.Float64bits(opt.Solver.Eps))
	word(uint64(opt.Solver.MaxIter))
	return h.Sum64()
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits, Misses, Evictions int
}

type cacheEntry struct {
	key    CacheKey
	policy synth.Policy
	value  float64
}

// Cache memoizes synthesized routing strategies with LRU eviction under a
// size bound, which alone bounds it: an entry whose region has degraded
// since is never served again (its key carries the old health hash) and
// ages out like any other. It is safe for concurrent use: concurrent Route
// calls share one instance.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[CacheKey]*list.Element
	stats   CacheStats
}

// NewCache returns a cache holding at most size strategies; size <= 0 means
// DefaultCacheSize.
func NewCache(size int) *Cache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Cache{cap: size, ll: list.New(), entries: make(map[CacheKey]*list.Element)}
}

// Lookup returns the cached strategy for key, marking it most recently
// used. It unlocks explicitly rather than by defer: every routing job
// probes the cache, so the body stays on the hotalloc zero-overhead path.
//
//meda:hotpath
func (c *Cache) Lookup(key CacheKey) (synth.Policy, float64, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		c.mu.Unlock()
		telCacheMisses.Inc()
		return synth.Policy{}, 0, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	policy, value := e.policy, e.value
	c.mu.Unlock()
	telCacheHits.Inc()
	return policy, value, true
}

// Contains reports whether key is cached without touching recency or stats.
func (c *Cache) Contains(key CacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Store inserts (or refreshes) a strategy, evicting the least recently used
// entry when the bound is exceeded.
func (c *Cache) Store(key CacheKey, p synth.Policy, value float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.policy, e.value = p, value
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, policy: p, value: value})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
		telCacheEvictions.Inc()
	}
}

// Len returns the number of cached strategies.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
