package sched

import (
	"container/list"
	"math"
	"sync"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/synth"
)

// DefaultCacheSize bounds the strategy cache of NewAdaptive.
const DefaultCacheSize = 256

// CacheKey identifies one synthesized strategy: the job's geometry, a
// fingerprint of the synthesis options (query and action alphabet),
// the hash of the observed health codes inside the job's hazard bounds,
// and the signature of the obstacles inside those bounds. Keying on the
// region's health hash makes the cache exactly as fresh as Alg. 3
// requires: any degradation inside the region changes the key (a miss),
// while degradation elsewhere on the chip leaves it untouched (a hit).
// Keys carry the job's actual chip coordinates, so each position and
// obstacle layout has its own entry, and a hit is bit-identical to a fresh
// synthesis of the job.
type CacheKey struct {
	Start, Goal, Hazard geom.Rect
	Opts                uint64
	Health              uint64
	// Obstacles is ObstacleSignature of the job's obstacles over Hazard,
	// 0 for an unobstructed window. It takes part in equality but not in
	// Hash: fault-injection draws are a function of the window alone.
	Obstacles uint64
}

// NewCacheKey builds the key for an unobstructed job under the
// given options and region health hash (typically
// chip.HealthHash(rj.Hazard)). The rj must already be dispense-normalized.
// An obstructed job's key also sets Obstacles to ObstacleSignature(
// rj.Hazard, obstacles); the obstacles are then keyed as exactly as the
// health is (see ObstacleSignature).
func NewCacheKey(rj route.RJ, opt synth.Options, health uint64) CacheKey {
	return CacheKey{
		Start:  rj.Start,
		Goal:   rj.Goal,
		Hazard: rj.Hazard,
		Opts:   fingerprintOptions(opt),
		Health: health,
	}
}

// ObstacleSignature hashes the obstacles a synthesis over hazard sees: each
// (valid) obstacle clipped to hazard, empty clips dropped, the rest sorted
// and deduplicated. It is 0 when no obstacle reaches into hazard, and it
// allocates nothing: the sorted order is walked by repeated minimum
// selection, which costs n² rectangle compares for n obstacles — a few
// hundred for the handful of droplets on an array.
//
// Clipping is exact. The induced model tests obstacles only on positions
// it enumerates, all of which lie inside hazard, and a rectangle inside
// hazard overlaps an obstacle exactly when it overlaps the obstacle's clip;
// an outcome leaving hazard goes to the hazard sink before any obstacle is
// tested (smg.Arena.resolve). Equal signatures therefore induce the same
// model, and the same strategy, up to 64-bit hash collisions — the same
// bound the health hash carries.
func ObstacleSignature(hazard geom.Rect, obstacles []geom.Rect) uint64 {
	var h uint64
	var prev geom.Rect
	for n := 0; ; n++ {
		var next geom.Rect
		found := false
		for _, b := range obstacles {
			c, ok := b.Intersect(hazard)
			if !ok || (n > 0 && !prev.Less(c)) || (found && !c.Less(next)) {
				continue
			}
			next, found = c, true
		}
		if !found {
			return h
		}
		if n == 0 {
			h = fnvOffset
		}
		h = fnvWord(h, uint64(uint32(next.XA))<<32|uint64(uint32(next.YA)))
		h = fnvWord(h, uint64(uint32(next.XB))<<32|uint64(uint32(next.YB)))
		prev = next
	}
}

// FNV-1a over the little-endian bytes of 64-bit words, as hash/fnv's
// New64a computes it, inlined so that hashing allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Hash folds the key into 64 bits — the identity handed to a FaultInjector,
// which must not depend on sched's internal key layout. Obstacles is left
// out, so the draws for a window do not depend on which droplets rest
// around it. The last word folded is a constant zero: it separates no two
// keys, but it fixes the hash's value, which every SynthTimeout and
// CachePoison draw depends on, so dropping it would change every injected
// fault (TestCacheKeyHashPinned).
func (k CacheKey) Hash() uint64 {
	h := uint64(fnvOffset)
	for _, r := range [3]geom.Rect{k.Start, k.Goal, k.Hazard} {
		h = fnvWord(h, uint64(uint32(r.XA))<<32|uint64(uint32(r.YA)))
		h = fnvWord(h, uint64(uint32(r.XB))<<32|uint64(uint32(r.YB)))
	}
	h = fnvWord(h, k.Opts)
	h = fnvWord(h, k.Health)
	return fnvWord(h, 0)
}

// fingerprintOptions hashes the option fields a strategy depends on: the
// query and the action alphabet. Around the alphabet flags it also folds
// four constant words: action.DefaultMaxAspect, the one-cycle action cost,
// and the zero Eps and MaxIter synthesis solves at. They do not separate
// any two keys, but they fix the fingerprint's value, which CacheKey.Hash
// feeds into every SynthTimeout and CachePoison draw: dropping them would
// change every injected fault (TestFingerprintPinned).
func fingerprintOptions(opt synth.Options) uint64 {
	h := uint64(fnvOffset)
	q := opt.Query.String()
	for i := 0; i < len(q); i++ {
		h ^= uint64(q[i])
		h *= fnvPrime
	}
	h = fnvWord(h, math.Float64bits(action.DefaultMaxAspect))
	h = fnvWord(h, math.Float64bits(1))
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
	h = fnvWord(h, flags)
	h = fnvWord(h, 0)    // the bits of the zero Eps
	return fnvWord(h, 0) // the zero MaxIter
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
