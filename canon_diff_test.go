// Differential tests for D4 canonicalization, the soundness property behind
// the offline strategy library's per-shape keys: a routing job and any
// translated, rotated, or reflected image of it must synthesize equivalent
// strategies under the inverse transform over a uniform force field — on
// every routing job of the six evaluation bioassays and on randomized
// window geometries.
package meda_test

import (
	"math"
	"testing"

	"meda"
	"meda/internal/action"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/randx"
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
