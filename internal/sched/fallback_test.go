package sched

import (
	"errors"
	"testing"

	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/policy"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/synth"
)

// scriptedInjector fails synthesis attempts according to a per-attempt
// script (attempt i fails iff script[i]; attempts beyond the script
// succeed) and can poison every cache store.
type scriptedInjector struct {
	script    []bool
	poisonAll bool
	timeouts  int
	poisons   int
}

func (s *scriptedInjector) SynthTimeout(key uint64, attempt int) bool {
	s.timeouts++
	return attempt < len(s.script) && s.script[attempt]
}

func (s *scriptedInjector) CachePoison(key uint64) bool {
	s.poisons++
	return s.poisonAll
}

// scriptedRouter fails a scripted number of Route calls before succeeding,
// recording call order.
type scriptedRouter struct {
	failures int
	calls    int
	policy   synth.Policy
	empty    bool
}

func (s *scriptedRouter) Name() string      { return "scripted" }
func (s *scriptedRouter) HealthAware() bool { return false }
func (s *scriptedRouter) Route(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error) {
	s.calls++
	if s.calls <= s.failures {
		return synth.Policy{}, 0, ErrInjectedTimeout
	}
	if s.empty {
		return synth.Policy{}, 0, nil
	}
	return s.policy, 1, nil
}

func somePolicy() synth.Policy {
	return policy.Of([]policy.Entry{{D: rect(1, 1, 3, 3), A: 0}})
}

func TestFallbackIdentity(t *testing.T) {
	f := NewFallback(NewAdaptive(DefaultCacheSize), NewBaseline())
	if f.Name() != "adaptive+fallback" {
		t.Errorf("Name = %q", f.Name())
	}
	if !f.HealthAware() {
		t.Error("adaptive-primary fallback not health-aware")
	}
	if NewFallback(NewBaseline(), NewBaseline()).HealthAware() {
		t.Error("baseline-primary fallback claims health awareness")
	}
}

// TestFallbackRecoversOnRetry: a primary that fails once then succeeds is
// retried, not escalated — the recovery path of the degradation ladder.
func TestFallbackRecoversOnRetry(t *testing.T) {
	prim := &scriptedRouter{failures: 1, policy: somePolicy()}
	f := NewFallback(prim, NewBaseline())
	c := freshChip(t, 1)
	p, _, err := f.Route(job(), c, nil)
	if err != nil || p.Len() == 0 {
		t.Fatalf("Route: %v (policy %d)", err, p.Len())
	}
	if prim.calls != 2 {
		t.Errorf("primary called %d times, want 2 (fail + retry)", prim.calls)
	}
	st := f.Stats()
	if st.Retries != 1 || st.Finals != 0 {
		t.Errorf("stats = %+v, want 1 retry, 0 finals", st)
	}
}

// TestFallbackExhaustsRetriesThenFinal: a primary that never succeeds is
// retried DefaultMaxRetries times and then the final tier serves the route.
func TestFallbackExhaustsRetriesThenFinal(t *testing.T) {
	prim := &scriptedRouter{failures: 1 << 30}
	f := NewFallback(prim, NewBaseline())
	c := freshChip(t, 1)
	p, _, err := f.Route(job(), c, nil)
	if err != nil {
		t.Fatalf("final tier failed: %v", err)
	}
	if p.Len() == 0 {
		t.Fatal("final tier returned empty policy")
	}
	if prim.calls != DefaultMaxRetries+1 {
		t.Errorf("primary called %d times, want %d", prim.calls, DefaultMaxRetries+1)
	}
	st := f.Stats()
	if st.Retries != DefaultMaxRetries || st.Finals != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFallbackEmptyPolicySkipsRetries: a primary that *successfully* proves
// no strategy exists is not retried (the proof is deterministic); the final
// tier is consulted directly.
func TestFallbackEmptyPolicySkipsRetries(t *testing.T) {
	prim := &scriptedRouter{empty: true}
	f := NewFallback(prim, NewBaseline())
	c := freshChip(t, 1)
	p, _, err := f.Route(job(), c, nil)
	if err != nil || p.Len() == 0 {
		t.Fatalf("Route: %v (policy %d)", err, p.Len())
	}
	if prim.calls != 1 {
		t.Errorf("primary called %d times, want 1 (no retries on a sound no-strategy proof)", prim.calls)
	}
	if st := f.Stats(); st.Retries != 0 || st.Finals != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFallbackRouteDegraded: degraded routing bypasses the primary tier
// entirely.
func TestFallbackRouteDegraded(t *testing.T) {
	prim := &scriptedRouter{policy: somePolicy()}
	f := NewFallback(prim, NewBaseline())
	c := freshChip(t, 1)
	p, _, err := f.RouteDegraded(job(), c, nil)
	if err != nil || p.Len() == 0 {
		t.Fatalf("RouteDegraded: %v (policy %d)", err, p.Len())
	}
	if prim.calls != 0 {
		t.Errorf("primary consulted %d times on a degraded route", prim.calls)
	}
	if st := f.Stats(); st.DegradedRoutes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAdaptiveInjectedTimeoutOrdering: with a scripted injector failing
// attempts 0 and 1, the full Adaptive-under-Fallback ladder recovers on the
// third attempt — exercising the per-key attempt counter end to end.
func TestAdaptiveInjectedTimeoutOrdering(t *testing.T) {
	a := NewAdaptive(DefaultCacheSize)
	f := NewFallback(a, NewBaseline())
	inj := &scriptedInjector{script: []bool{true, true}}
	f.SetFaultInjector(inj) // forwards to the adaptive primary
	c := freshChip(t, 1)
	p, _, err := f.Route(job(), c, nil)
	if err != nil || p.Len() == 0 {
		t.Fatalf("Route: %v (policy %d)", err, p.Len())
	}
	st := f.Stats()
	if st.Retries != 2 || st.Finals != 0 {
		t.Errorf("stats = %+v, want 2 retries then recovery", st)
	}
	if inj.timeouts != 3 {
		t.Errorf("injector consulted %d times, want 3", inj.timeouts)
	}
	if a.Syntheses != 1 {
		t.Errorf("adaptive ran %d syntheses, want 1 (two were injected away)", a.Syntheses)
	}
}

// TestAdaptiveAllAttemptsTimeOut: an injector that always fails pushes the
// ladder to the baseline tier, which is never injection-gated.
func TestAdaptiveAllAttemptsTimeOut(t *testing.T) {
	a := NewAdaptive(DefaultCacheSize)
	f := NewFallback(a, NewBaseline())
	f.SetFaultInjector(&scriptedInjector{script: []bool{true, true, true, true, true, true}})
	c := freshChip(t, 1)
	p, _, err := f.Route(job(), c, nil)
	if err != nil {
		t.Fatalf("ladder bottomed out with error: %v", err)
	}
	if p.Len() == 0 {
		t.Fatal("baseline tier returned empty policy")
	}
	if st := f.Stats(); st.Finals != 1 {
		t.Errorf("stats = %+v, want 1 final", st)
	}
	if a.Syntheses != 0 {
		t.Errorf("adaptive ran %d syntheses despite total injection", a.Syntheses)
	}
}

// TestAdaptiveCachePoisonForcesResynthesis: a poisoned store is discarded,
// so the same degraded-region job synthesizes again on the next request.
func TestAdaptiveCachePoisonForcesResynthesis(t *testing.T) {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.1, Tau2: 0.2, C1: 10, C2: 20}
	c, err := chip.New(cfg, randx.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Wear part of the job's region so routing goes through the cache
	// path (the library path stores by geometry, not health key).
	for i := 0; i < 60; i++ {
		c.Actuate(rect(14, 9, 17, 13))
	}
	a := NewAdaptive(DefaultCacheSize)
	a.SetFaultInjector(&scriptedInjector{poisonAll: true})
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if a.Syntheses != 2 {
		t.Errorf("syntheses = %d, want 2 (poisoned store must not be served)", a.Syntheses)
	}
	if a.CacheHits != 0 {
		t.Errorf("cache hits = %d, want 0", a.CacheHits)
	}
	// Detach: the next synthesis is stored and served from cache.
	a.SetFaultInjector(nil)
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Route(job(), c, nil); err != nil {
		t.Fatal(err)
	}
	if a.CacheHits != 1 {
		t.Errorf("cache hits after detach = %d, want 1", a.CacheHits)
	}
}

// TestInjectedTimeoutError: the injected error is ErrInjectedTimeout, so
// callers can distinguish it from real synthesis failures.
func TestInjectedTimeoutError(t *testing.T) {
	a := NewAdaptive(DefaultCacheSize)
	a.SetFaultInjector(&scriptedInjector{script: []bool{true}})
	c := freshChip(t, 1)
	_, _, err := a.Route(job(), c, nil)
	if !errors.Is(err, ErrInjectedTimeout) {
		t.Errorf("err = %v, want ErrInjectedTimeout", err)
	}
}

// TestFallbackPassthroughs: optional interfaces forward to the primary and
// degrade gracefully when the primary lacks them.
func TestFallbackPassthroughs(t *testing.T) {
	c := freshChip(t, 1)
	plain := NewFallback(&scriptedRouter{policy: somePolicy()}, NewBaseline())
	plain.SetFaultInjector(&scriptedInjector{}) // must not panic

	adaptive := NewAdaptive(8)
	f := NewFallback(adaptive, NewBaseline())
	f.SetFaultInjector(&scriptedInjector{script: []bool{true}})
	if _, _, err := adaptive.Route(job(), c, nil); !errors.Is(err, ErrInjectedTimeout) {
		t.Errorf("injector not forwarded to the primary: err = %v", err)
	}
}

func TestCacheKeyHash(t *testing.T) {
	c := freshChip(t, 1)
	k1 := NewCacheKey(job(), synth.DefaultOptions(), c.HealthHash(job().Hazard))
	k2 := NewCacheKey(job(), synth.DefaultOptions(), c.HealthHash(job().Hazard))
	if k1.Hash() != k2.Hash() {
		t.Error("equal keys hash differently")
	}
	other := job()
	other.Goal = rect(21, 10, 23, 12)
	k3 := NewCacheKey(other, synth.DefaultOptions(), c.HealthHash(other.Hazard))
	if k1.Hash() == k3.Hash() {
		t.Error("distinct keys collide")
	}
}

// TestCacheKeyHashPinned: the hash keys fault-injection decisions, which
// must replay across processes, so Hash must be a fixed function of the
// fields. Every field here is distinct and nonzero, so a change in the
// order fields are folded (a map range, say) shows too; the pinned value
// catches anything that varies between runs (a clock read, a per-process
// seed).
func TestCacheKeyHashPinned(t *testing.T) {
	k := CacheKey{
		Start: rect(2, 3, 4, 5), Goal: rect(20, 9, 22, 11), Hazard: rect(1, 2, 24, 14),
		Opts: 0x1234_5678, Health: 0x9abc_def0, Form: FormCanon,
	}
	const want = 0xd451e514a701d541
	for i := 0; i < 64; i++ {
		if got := k.Hash(); got != want {
			t.Fatalf("call %d: Hash() = %#x, want %#x", i, got, uint64(want))
		}
	}
}
