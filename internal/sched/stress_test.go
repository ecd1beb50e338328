package sched

import (
	"errors"
	"sync"
	"testing"

	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/synth"
)

// TestConcurrentCacheStress hammers the strategy cache from background
// goroutines while the main goroutine routes, degrades the chip, and
// invalidates — the interleaving a shared adaptive router sees when health
// goes dirty mid-assay. Its job is to give the race detector (go test -race,
// the CI race step) something to chew on: every Cache method and
// InvalidateRegion run concurrently with Route.
//
// Live chip state is read and mutated only on the main goroutine; the
// background goroutines confine themselves to the cache, which is
// documented as goroutine-safe.
func TestConcurrentCacheStress(t *testing.T) {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.5, Tau2: 0.9, C1: 200, C2: 500}
	c, err := chip.New(cfg, randx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	hazard := rect(5, 5, 15, 12)
	// Wear the region past fully-healthy so Route takes the health-keyed
	// cache path instead of the library fast path.
	for i := 0; i < 3000; i++ {
		c.Actuate(hazard)
	}
	top := 1<<uint(c.HealthBits()) - 1
	if c.MinHealth(hazard) == top {
		t.Fatal("region still fully healthy; stress would only exercise the library path")
	}

	a := NewAdaptive(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pol := synth.Policy{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := CacheKey{
					Start:  rect(g+1, 1, g+3, 3),
					Goal:   rect(25, 20, 27, 22),
					Hazard: rect(g+1, 1, 27, 22),
					Opts:   uint64(g),
					Health: uint64(i % 7),
				}
				a.Cache.Store(key, pol, 1)
				a.Cache.Lookup(key)
				a.Cache.Contains(key)
				if i%5 == 0 {
					a.InvalidateRegion(rect(1, 1, 15, 15))
				}
				a.Cache.Len()
				a.Cache.Stats()
			}
		}(g)
	}

	jobs := []route.RJ{
		{Start: rect(6, 6, 8, 8), Goal: rect(12, 9, 14, 11), Hazard: hazard},
		{Start: rect(6, 9, 8, 11), Goal: rect(12, 6, 14, 8), Hazard: hazard},
		{Start: rect(9, 6, 11, 8), Goal: rect(6, 9, 8, 11), Hazard: hazard},
	}
	for i := 0; i < 12; i++ {
		rj := jobs[i%len(jobs)]
		if _, _, err := a.Route(rj, c, nil); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			// Health goes dirty: the hash under every cached key changes,
			// and the eager invalidation races the background lookups.
			c.Actuate(hazard)
			a.InvalidateRegion(hazard)
		}
	}
	close(stop)
	wg.Wait()

	st := a.Cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("stress run never touched the cache")
	}
	if st.Invalidations == 0 {
		t.Error("stress run never invalidated")
	}
	// Each health change rekeys the jobs, forcing re-synthesis: there must
	// have been strictly more syntheses than distinct jobs.
	if a.Syntheses <= len(jobs) {
		t.Errorf("syntheses = %d, want > %d (health changes must force re-synthesis)",
			a.Syntheses, len(jobs))
	}
}

// TestConcurrentRouteSingleFlight: the concurrent executor may route several
// jobs at once, so Route must be callable from multiple goroutines — the
// effectiveness counters must not race (the -race CI step watches this test)
// and identical concurrent requests must coalesce into exactly one synthesis
// via the pending map, not one per caller.
func TestConcurrentRouteSingleFlight(t *testing.T) {
	a := NewAdaptive(32)
	rj := route.RJ{
		Start:  rect(2, 2, 5, 5),
		Goal:   rect(12, 8, 15, 11),
		Hazard: rect(1, 1, 18, 14),
	}
	const routers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, routers)
	for g := 0; g < routers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// chip.Chip is unsynchronized, so every router goroutine builds
			// its own identically seeded instance; the shared state under
			// stress is the Adaptive router itself.
			c, err := chip.New(chip.Default(), randx.New(99))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < rounds; i++ {
				p, _, err := a.Route(rj, c, nil)
				if err != nil {
					errs <- err
					return
				}
				if len(p) == 0 {
					errs <- errors.New("Route returned an empty policy")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if a.Syntheses != 1 {
		t.Errorf("%d routers × %d rounds ran %d syntheses, want exactly 1 (single-flight)",
			routers, rounds, a.Syntheses)
	}
	if want := routers*rounds - 1; a.LibraryUses != want {
		t.Errorf("library served %d routes, want %d", a.LibraryUses, want)
	}
}
