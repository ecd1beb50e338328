// Differential tests for D4 canonicalization, the soundness property behind
// the per-shape strategy cache: a routing job and any translated, rotated, or
// reflected image of it must synthesize equivalent strategies under the
// inverse transform — on every routing job of the six evaluation bioassays
// and on randomized window geometries — and the scheduler must only take the
// canonical cache path when the window's observed health is actually uniform.
package meda_test

import (
	"math"
	"testing"

	"meda"
	"meda/internal/action"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/randx"
	"meda/internal/sched"
	"meda/internal/synth"
)

// checkCanonicalEquivalence synthesizes rj directly and via its canonical
// form, then demands equal values and an inverted policy that covers exactly
// the droplet positions the direct policy covers.
func checkCanonicalEquivalence(t *testing.T, rj meda.RoutingJob, field func(x, y int) float64) {
	t.Helper()
	direct, err := synth.Synthesize(rj, field, synth.DefaultOptions())
	if err != nil {
		t.Fatalf("%v: direct synthesis: %v", rj, err)
	}
	crj, tf := synth.Canonicalize(rj)
	canon, err := synth.Synthesize(crj, field, synth.DefaultOptions())
	if err != nil {
		t.Fatalf("%v: canonical synthesis: %v", rj, err)
	}
	if direct.Exists() != canon.Exists() {
		t.Fatalf("%v: existence disagrees: direct %v, canonical %v", rj, direct.Exists(), canon.Exists())
	}
	if !direct.Exists() {
		return
	}
	if math.Abs(direct.Value-canon.Value) > 1e-6 {
		t.Fatalf("%v: value %v direct vs %v via canonical form", rj, direct.Value, canon.Value)
	}
	inv := tf.InvertPolicy(canon.Policy)
	if inv.Len() != direct.Policy.Len() {
		t.Fatalf("%v: policy domains differ: %d inverted vs %d direct", rj, inv.Len(), direct.Policy.Len())
	}
	direct.Policy.Walk(func(d meda.Rect, _ action.Action) {
		if _, ok := inv.Lookup(d); !ok {
			t.Fatalf("%v: inverted policy missing droplet %v", rj, d)
		}
	})
}

// TestCanonicalizationEquivalenceOnAssays runs the equivalence property over
// every routing job of all six evaluation bioassays on a uniformly worn
// field.
func TestCanonicalizationEquivalenceOnAssays(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping assay-wide canonicalization differential in -short mode")
	}
	worn := func(x, y int) float64 { return 0.81 }
	cfg := chip.Default()
	for _, bench := range assay.EvaluationBenchmarks {
		bench := bench
		t.Run(bench.String(), func(t *testing.T) {
			plan, err := meda.CompileBenchmark(bench, cfg, 16)
			if err != nil {
				t.Fatal(err)
			}
			jobs := 0
			for _, mo := range plan.MOs {
				for _, rj := range mo.Jobs {
					rj = synth.NormalizeDispense(rj, cfg.W, cfg.H)
					checkCanonicalEquivalence(t, rj, worn)
					jobs++
				}
			}
			if jobs == 0 {
				t.Fatal("assay produced no routing jobs")
			}
		})
	}
}

// TestCanonicalizationEquivalenceRandomized is the property-based variant:
// random window geometries, random droplet and goal placements, and a random
// dihedral image at a random offset. The image must canonicalize to the same
// representative as the base job and synthesize to the same value.
func TestCanonicalizationEquivalenceRandomized(t *testing.T) {
	src := randx.New(42)
	worn := func(x, y int) float64 { return 0.72 }
	for i := 0; i < 20; i++ {
		w, h := src.IntRange(6, 14), src.IntRange(6, 14)
		place := func() meda.Rect {
			dw, dh := src.IntRange(2, 3), src.IntRange(2, 3)
			x := src.IntRange(1, w-dw+1)
			y := src.IntRange(1, h-dh+1)
			return meda.Rect{XA: x, YA: y, XB: x + dw - 1, YB: y + dh - 1}
		}
		base := meda.RoutingJob{
			Start:  place(),
			Goal:   place(),
			Hazard: meda.Rect{XA: 1, YA: 1, XB: w, YB: h},
		}
		checkCanonicalEquivalence(t, base, worn)

		tf := synth.Transform{Op: uint8(src.IntN(8)), X0: 1, Y0: 1, W: w, H: h}
		dx, dy := src.IntN(10), src.IntN(10)
		img := meda.RoutingJob{
			Start:  tf.Apply(base.Start).Translate(dx, dy),
			Goal:   tf.Apply(base.Goal).Translate(dx, dy),
			Hazard: tf.Apply(base.Hazard).Translate(dx, dy),
		}
		cb, _ := synth.Canonicalize(base)
		ci, _ := synth.Canonicalize(img)
		if cb.Start != ci.Start || cb.Goal != ci.Goal || cb.Hazard != ci.Hazard {
			t.Fatalf("case %d: image %+v canonicalizes to %+v, base %+v to %+v", i, img, ci, base, cb)
		}
		direct, err := synth.Synthesize(base, worn, synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		mirrored, err := synth.Synthesize(img, worn, synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if direct.Exists() != mirrored.Exists() ||
			(direct.Exists() && math.Abs(direct.Value-mirrored.Value) > 1e-6) {
			t.Fatalf("case %d: base value %v, dihedral image value %v", i, direct.Value, mirrored.Value)
		}
	}
}

// uniformlyDegradedChip returns a chip whose whole surface has been worn to
// one uniform sub-top health code.
func uniformlyDegradedChip(t *testing.T) *chip.Chip {
	t.Helper()
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.7, Tau2: 0.7, C1: 300, C2: 300}
	c, err := chip.New(cfg, randx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	whole := meda.Rect{XA: 1, YA: 1, XB: c.W(), YB: c.H()}
	for i := 0; i < 3000; i++ {
		c.Actuate(whole)
	}
	top := 1<<uint(c.HealthBits()) - 1
	if code, uniform := c.UniformHealth(whole); !uniform || code == top {
		t.Fatalf("fixture not uniformly degraded (code %d, uniform %v)", code, uniform)
	}
	return c
}

// TestUniformHealthSharesCanonicalCacheEntry: on a uniformly degraded chip,
// the scheduler caches under the canonical key, and a translated copy of the
// job is served from that entry without a second synthesis.
func TestUniformHealthSharesCanonicalCacheEntry(t *testing.T) {
	c := uniformlyDegradedChip(t)
	job := meda.RoutingJob{
		Start:  meda.Rect{XA: 2, YA: 2, XB: 4, YB: 4},
		Goal:   meda.Rect{XA: 12, YA: 8, XB: 14, YB: 10},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 15, YB: 11},
	}
	a := sched.NewAdaptive(sched.DefaultCacheSize)
	p, _, err := a.Route(job, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Lookup(job.Start); !ok {
		t.Fatal("routed policy does not cover the start position")
	}
	if a.Syntheses != 1 {
		t.Fatalf("first route: %d syntheses, want 1", a.Syntheses)
	}
	raw := sched.NewCacheKey(job, a.Opt, c.HealthHash(job.Hazard))
	if a.Cache.Contains(raw) {
		t.Error("uniform-health job cached under the raw per-position key")
	}
	code, _ := c.UniformHealth(job.Hazard)
	ckey, _ := sched.NewCanonicalCacheKey(job, a.Opt, code)
	if !a.Cache.Contains(ckey) {
		t.Error("uniform-health job not cached under the canonical key")
	}

	shifted := meda.RoutingJob{
		Start:  job.Start.Translate(20, 9),
		Goal:   job.Goal.Translate(20, 9),
		Hazard: job.Hazard.Translate(20, 9),
	}
	sp, _, err := a.Route(shifted, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Syntheses != 1 || a.CacheHits != 1 {
		t.Fatalf("shifted copy: %d syntheses and %d cache hits, want 1 and 1", a.Syntheses, a.CacheHits)
	}
	if _, ok := sp.Lookup(shifted.Start); !ok {
		t.Fatal("de-canonicalized policy does not cover the shifted start")
	}
}

// TestNonUniformHealthBypassesCanonicalization: when health codes differ
// inside the window, the scheduler must fall back to the raw per-position
// key — canonical sharing across positions would serve strategies synthesized
// against a different force field.
func TestNonUniformHealthBypassesCanonicalization(t *testing.T) {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.7, Tau2: 0.7, C1: 300, C2: 300}
	c, err := chip.New(cfg, randx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	job := meda.RoutingJob{
		Start:  meda.Rect{XA: 2, YA: 2, XB: 4, YB: 4},
		Goal:   meda.Rect{XA: 12, YA: 8, XB: 14, YB: 10},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 15, YB: 11},
	}
	// Wear only the left half of the window so its codes split.
	left := meda.Rect{XA: 1, YA: 1, XB: 7, YB: 11}
	for i := 0; i < 3000; i++ {
		c.Actuate(left)
	}
	if _, uniform := c.UniformHealth(job.Hazard); uniform {
		t.Fatal("fixture failed to produce a non-uniform window")
	}
	a := sched.NewAdaptive(sched.DefaultCacheSize)
	if _, _, err := a.Route(job, c, nil); err != nil {
		t.Fatal(err)
	}
	raw := sched.NewCacheKey(job, a.Opt, c.HealthHash(job.Hazard))
	if !a.Cache.Contains(raw) {
		t.Error("non-uniform window not cached under the raw key")
	}
	// Same job again: a raw-key hit, not a resynthesis.
	if _, _, err := a.Route(job, c, nil); err != nil {
		t.Fatal(err)
	}
	if a.Syntheses != 1 || a.CacheHits != 1 {
		t.Fatalf("repeat route: %d syntheses and %d cache hits, want 1 and 1", a.Syntheses, a.CacheHits)
	}
}
