package sched

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/synth"
)

// TestConcurrentCacheStress hammers the strategy cache from background
// goroutines while the main goroutine routes and degrades the chip — the
// interleaving a shared adaptive router sees when health goes dirty
// mid-assay. Its job is to give the race detector (go test -race, the CI
// race step) something to chew on: every Cache method runs concurrently
// with Route.
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
	if c.Healthy(hazard) {
		t.Fatal("region still fully healthy; stress would only exercise the library path")
	}

	a := NewAdaptive()
	a.Cache = NewCache(32)
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
			// Health goes dirty: wear the region until its observed
			// health, and so the hash under every cached key, changes
			// while the background goroutines keep storing and looking up.
			h := c.HealthHash(hazard)
			for n := 0; c.HealthHash(hazard) == h; n++ {
				if n == 10000 {
					t.Fatal("region health never changed")
				}
				c.Actuate(hazard)
			}
		}
	}
	close(stop)
	wg.Wait()

	st := a.Cache.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("stress run never touched the cache")
	}
	// Each health change rekeys the jobs, forcing re-synthesis: there must
	// have been strictly more syntheses than distinct jobs.
	if a.Syntheses <= len(jobs) {
		t.Errorf("syntheses = %d, want > %d (health changes must force re-synthesis)",
			a.Syntheses, len(jobs))
	}
}

// TestConcurrentRouteSharedRouter: Route must be callable from several
// goroutines at once on one Adaptive — its counters, fault injector and
// attempt map sit under its mutex, and the stores keep their own locks (the
// -race CI step watches this test). Concurrent callers of one window may
// each synthesize it, but every one must be served the same strategy, and
// every route must be counted exactly once, as a synthesis or a Library use.
func TestConcurrentRouteSharedRouter(t *testing.T) {
	a := NewAdaptive()
	rj := route.RJ{
		Start:  rect(2, 2, 5, 5),
		Goal:   rect(12, 8, 15, 11),
		Hazard: rect(1, 1, 18, 14),
	}
	const routers = 8
	const rounds = 20
	c, err := chip.New(chip.Default(), randx.New(99))
	if err != nil {
		t.Fatal(err)
	}
	want, err := synth.Synthesize(synth.NormalizeDispense(rj, c.W(), c.H()),
		func(x, y int) float64 { return 1 }, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
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
				p, v, err := a.Route(rj, c, nil)
				if err != nil {
					errs <- err
					return
				}
				if diff := p.Diff(want.Policy); diff != "" || math.Float64bits(v) != math.Float64bits(want.Value) {
					errs <- fmt.Errorf("round %d: served value %v, want %v; policy: %s", i, v, want.Value, diff)
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
	if got := a.Syntheses + a.LibraryUses; got != routers*rounds {
		t.Errorf("%d syntheses + %d library uses = %d, want %d routes", a.Syntheses, a.LibraryUses, got, routers*rounds)
	}
	if a.Syntheses == 0 {
		t.Error("no route synthesized the window")
	}
}
