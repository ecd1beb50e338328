package sched

import (
	"testing"

	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/randx"
	"meda/internal/synth"
)

func wornChip(t *testing.T, seed uint64) *chip.Chip {
	t.Helper()
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.1, Tau2: 0.2, C1: 10, C2: 20}
	c, err := chip.New(cfg, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	// Wear the standard job's region so the router takes the cache path.
	for i := 0; i < 60; i++ {
		c.Actuate(rect(14, 9, 17, 13))
	}
	return c
}

func TestCacheHitOnUnchangedHealth(t *testing.T) {
	c := wornChip(t, 1)
	cache := NewCache(8)
	opt := synth.DefaultOptions()
	key := NewCacheKey(job(), opt, c.HealthHash(job().Hazard))
	cache.Store(key, tinyPolicy(), 9)
	// Nothing happened to the chip: same key, same entry.
	p, v, ok := cache.Lookup(NewCacheKey(job(), opt, c.HealthHash(job().Hazard)))
	if !ok || v != 9 || p.Len() != 1 {
		t.Fatalf("lookup = %v/%v/%v, want hit", p, v, ok)
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheMissAfterDegradationInsideRegion(t *testing.T) {
	c := wornChip(t, 2)
	cache := NewCache(8)
	opt := synth.DefaultOptions()
	cache.Store(NewCacheKey(job(), opt, c.HealthHash(job().Hazard)), tinyPolicy(), 9)
	// Degrade a pristine corner inside the hazard bounds.
	for i := 0; i < 60; i++ {
		c.Actuate(rect(8, 8, 10, 10))
	}
	if _, _, ok := cache.Lookup(NewCacheKey(job(), opt, c.HealthHash(job().Hazard))); ok {
		t.Fatal("hit despite degradation inside the job's region")
	}
}

func TestCacheHitAfterDegradationOutsideRegion(t *testing.T) {
	c := wornChip(t, 3)
	cache := NewCache(8)
	opt := synth.DefaultOptions()
	cache.Store(NewCacheKey(job(), opt, c.HealthHash(job().Hazard)), tinyPolicy(), 9)
	// Degrade heavily, but far from the job's hazard bounds (which end at
	// x=25): the health hash of the region is untouched.
	for i := 0; i < 500; i++ {
		c.Actuate(rect(40, 5, 55, 25))
	}
	if _, _, ok := cache.Lookup(NewCacheKey(job(), opt, c.HealthHash(job().Hazard))); !ok {
		t.Fatal("miss despite degradation being outside the job's region")
	}
}

func TestCacheEvictionUnderSizeBound(t *testing.T) {
	cache := NewCache(3)
	opt := synth.DefaultOptions()
	keyN := func(n int) CacheKey {
		rj := job()
		rj.Start = rj.Start.Translate(0, n)
		return NewCacheKey(rj, opt, 7)
	}
	for n := 0; n < 5; n++ {
		cache.Store(keyN(n), tinyPolicy(), float64(n))
	}
	if cache.Len() != 3 {
		t.Fatalf("len = %d, want 3", cache.Len())
	}
	if s := cache.Stats(); s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	// The two oldest entries (0, 1) are gone; the newest three remain.
	for n := 0; n < 2; n++ {
		if _, _, ok := cache.Lookup(keyN(n)); ok {
			t.Errorf("entry %d survived eviction", n)
		}
	}
	for n := 2; n < 5; n++ {
		if _, _, ok := cache.Lookup(keyN(n)); !ok {
			t.Errorf("entry %d evicted too early", n)
		}
	}
	// Recency matters: touching entry 2 makes 3 the eviction victim.
	cache.Lookup(keyN(2))
	cache.Store(keyN(5), tinyPolicy(), 5)
	if _, _, ok := cache.Lookup(keyN(3)); ok {
		t.Error("LRU victim should have been entry 3")
	}
	if _, _, ok := cache.Lookup(keyN(2)); !ok {
		t.Error("recently used entry 2 must survive")
	}
}

func TestCacheKeySeparatesOptions(t *testing.T) {
	a := synth.DefaultOptions()
	b := synth.DefaultOptions()
	b.Model.AllowDouble = !b.Model.AllowDouble
	if NewCacheKey(job(), a, 1) == NewCacheKey(job(), b, 1) {
		t.Error("different action alphabets must produce different keys")
	}
}

// TestServingAllocatesNothing: a cache hit and the executor's per-cycle
// action lookup in the served policy allocate nothing.
func TestServingAllocatesNothing(t *testing.T) {
	cache := NewCache(4)
	key := NewCacheKey(job(), synth.DefaultOptions(), 7)
	cache.Store(key, tinyPolicy(), 1)
	d := rect(10, 10, 12, 12)
	allocs := testing.AllocsPerRun(100, func() {
		p, _, ok := cache.Lookup(key)
		if !ok {
			t.Fatal("cache lost its entry")
		}
		if _, ok := p.Lookup(d); !ok {
			t.Fatal("policy lost its position")
		}
	})
	if allocs != 0 {
		t.Errorf("serving a cached strategy allocates %v times per lookup, want 0", allocs)
	}
}
