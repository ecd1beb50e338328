package sched

import (
	"math"
	"testing"

	"meda/internal/action"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/policy"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/synth"
)

func rect(xa, ya, xb, yb int) geom.Rect { return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb} }

func job() route.RJ {
	return route.RJ{
		Start:  rect(10, 10, 12, 12),
		Goal:   rect(20, 10, 22, 12),
		Hazard: rect(7, 7, 25, 15),
	}
}

func freshChip(t *testing.T, seed uint64) *chip.Chip {
	t.Helper()
	c, err := chip.New(chip.Default(), randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRouterIdentities(t *testing.T) {
	b := NewBaseline()
	a := NewAdaptive(DefaultCacheSize)
	if b.Name() != "baseline" || a.Name() != "adaptive" {
		t.Error("router names wrong")
	}
	if b.HealthAware() || !a.HealthAware() {
		t.Error("health awareness flags wrong")
	}
}

func TestBaselineRoute(t *testing.T) {
	c := freshChip(t, 1)
	p, v, err := NewBaseline().Route(job(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 { // 10 cells east; a 3×3 droplet has no double steps
		t.Errorf("baseline cost = %v, want 10", v)
	}
	if p.Len() == 0 {
		t.Error("empty baseline policy")
	}
}

func TestAdaptiveRouteHealthyUsesLibrary(t *testing.T) {
	c := freshChip(t, 2)
	a := NewAdaptive(DefaultCacheSize)
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if a.Syntheses != 1 || a.LibraryUses != 0 {
		t.Fatalf("first route: syntheses=%d lib=%d", a.Syntheses, a.LibraryUses)
	}
	// Same job again: served from the library.
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if a.LibraryUses != 1 {
		t.Errorf("second route should hit the library, lib=%d", a.LibraryUses)
	}
	// A translated copy of the job also hits (canonical keying).
	moved := job()
	moved.Start = moved.Start.Translate(5, 3)
	moved.Goal = moved.Goal.Translate(5, 3)
	moved.Hazard = moved.Hazard.Translate(5, 3)
	p, _, err := a.Route(moved, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.LibraryUses != 2 {
		t.Errorf("translated route should hit the library, lib=%d", a.LibraryUses)
	}
	if _, ok := p.Lookup(moved.Start); !ok {
		t.Error("translated policy must cover the translated start")
	}
}

func TestAdaptiveRouteDegradedSynthesizesOnline(t *testing.T) {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.1, Tau2: 0.2, C1: 10, C2: 20}
	c, err := chip.New(cfg, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Wear the job's region so its health drops below top.
	for i := 0; i < 60; i++ {
		c.Actuate(rect(14, 9, 17, 13))
	}
	a := NewAdaptive(DefaultCacheSize)
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if a.LibraryUses != 0 {
		t.Error("degraded region must not be served from the library")
	}
	if a.Syntheses != 1 {
		t.Errorf("syntheses = %d, want 1", a.Syntheses)
	}
	// Degraded routes are memoized: routing again under unchanged health
	// hits the strategy cache instead of re-synthesizing.
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if a.Syntheses != 1 || a.CacheHits != 1 {
		t.Errorf("syntheses = %d cacheHits = %d, want 1/1", a.Syntheses, a.CacheHits)
	}
	// Degradation of a previously pristine corner of the region changes
	// the health key: the next route must synthesize against the new
	// health matrix.
	for i := 0; i < 60; i++ {
		c.Actuate(rect(8, 8, 10, 10))
	}
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if a.Syntheses != 2 {
		t.Errorf("after degradation: syntheses = %d, want 2", a.Syntheses)
	}
}

func TestAdaptiveObstaclesBypassLibrary(t *testing.T) {
	c := freshChip(t, 4)
	a := NewAdaptive(DefaultCacheSize)
	obstacle := []geom.Rect{rect(15, 10, 18, 13)} // passable below (rows 7–9)
	p, v, err := a.Route(job(), c, obstacle)
	if err != nil {
		t.Fatal(err)
	}
	if a.LibraryUses != 0 {
		t.Error("obstructed route must not come from the library")
	}
	// The detour around the obstacle costs more than the straight line.
	if v <= 5 {
		t.Errorf("obstructed cost = %v, want > 5", v)
	}
	// Walking the policy (healthy chip: every move succeeds) never enters
	// the obstacle. (Blocked positions may still carry policy entries —
	// they are unreachable states of the model — so we check the actual
	// trajectory.)
	d := job().Start
	for step := 0; step < 50 && !job().Goal.ContainsRect(d); step++ {
		a, ok := p.Lookup(d)
		if !ok {
			t.Fatalf("policy undefined at %v", d)
		}
		d = a.Apply(d)
		if d.Overlaps(obstacle[0]) {
			t.Fatalf("trajectory entered the obstacle at %v", d)
		}
	}
	if !job().Goal.ContainsRect(d) {
		t.Error("trajectory did not reach the goal")
	}
}

func TestBaselineObstacles(t *testing.T) {
	c := freshChip(t, 5)
	clear, v0, err := NewBaseline().Route(job(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	blockedP, v1, err := NewBaseline().Route(job(), c, []geom.Rect{rect(15, 10, 18, 13)})
	if err != nil {
		t.Fatal(err)
	}
	if v1 <= v0 {
		t.Errorf("obstructed baseline cost %v should exceed clear cost %v", v1, v0)
	}
	if blockedP.Len() >= clear.Len() {
		t.Error("obstructed policy should cover fewer positions")
	}
}

func TestLibraryStats(t *testing.T) {
	lib := NewLibrary()
	if _, _, ok := lib.Lookup(job()); ok {
		t.Fatal("empty library hit")
	}
	lib.Store(job(), tinyPolicy(), 5)
	if _, _, ok := lib.Lookup(job()); !ok {
		t.Fatal("stored entry missed")
	}
	hits, misses, size := lib.Stats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Errorf("stats = %d/%d/%d", hits, misses, size)
	}
}

func TestLibraryValueRoundTrip(t *testing.T) {
	lib := NewLibrary()
	lib.Store(job(), tinyPolicy(), 7.5)
	_, v, ok := lib.Lookup(job())
	if !ok || math.Abs(v-7.5) > 1e-12 {
		t.Errorf("value round trip = %v/%v", v, ok)
	}
}

func tinyPolicy() synth.Policy {
	return policy.Of([]policy.Entry{{D: rect(10, 10, 12, 12), A: action.MoveE}})
}

// TestNewAdaptiveCacheSize pins the cache-size rule every adaptive router
// is built with: 0 disables the strategy cache, a negative size means
// DefaultCacheSize, and a positive size bounds the cache.
func TestNewAdaptiveCacheSize(t *testing.T) {
	cases := []struct {
		name      string
		cacheSize int
		want      int // cache bound; 0 means no cache
	}{
		{"zero disables", 0, 0},
		{"negative means default", -1, DefaultCacheSize},
		{"positive bounds", 7, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewAdaptive(c.cacheSize)
			if a.Lib == nil {
				t.Fatal("no strategy library")
			}
			if c.want == 0 {
				if a.Cache != nil {
					t.Fatalf("cache bound %d, want no cache", a.Cache.cap)
				}
				return
			}
			if a.Cache == nil || a.Cache.cap != c.want {
				t.Fatalf("cache = %+v, want bound %d", a.Cache, c.want)
			}
		})
	}
}
