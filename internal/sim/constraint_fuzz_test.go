package sim

import (
	"testing"

	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/synth"
)

// FuzzHazardZones property-checks the fluidic-constraint envelope that the
// concurrent executor's safety argument rests on:
//
//   - zoneConflict agrees with the first-principles Chebyshev-gap definition
//     (two rectangles conflict iff their axis gaps are both within margin);
//   - zoneConflict is symmetric in the two droplets;
//   - it is invariant under translations;
//   - it is invariant under the dihedral transform that synth.Canonicalize
//     derives for a job covering the droplets, and that transform round-trips
//     (Invert ∘ Apply = id) and is idempotent on the canonical job — the
//     property that makes the Library's canonical keys sound.
func FuzzHazardZones(f *testing.F) {
	f.Add(int8(2), int8(3), int8(8), int8(3), int8(1), int8(0), int8(-1), int8(0), int8(5), int8(-7), uint8(4), uint8(4), uint8(4), uint8(4), uint8(1))
	f.Add(int8(0), int8(0), int8(4), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), uint8(3), uint8(3), uint8(3), uint8(3), uint8(0))
	f.Add(int8(-5), int8(-5), int8(20), int8(20), int8(2), int8(2), int8(-2), int8(-2), int8(30), int8(30), uint8(2), uint8(5), uint8(5), uint8(2), uint8(3))
	f.Add(int8(1), int8(1), int8(1), int8(1), int8(0), int8(1), int8(1), int8(0), int8(-3), int8(4), uint8(1), uint8(1), uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, dax, day, dbx, dby, tx, ty int8, aw, ah, bw, bh, margin uint8) {
		rect := func(x, y int8, w, h uint8) geom.Rect {
			return geom.Rect{XA: int(x), YA: int(y), XB: int(x) + int(w%6), YB: int(y) + int(h%6)}
		}
		curA := rect(ax, ay, aw, ah)
		curB := rect(bx, by, bw, bh)
		nextA := curA.Translate(int(dax)%3, int(day)%3)
		nextB := curB.Translate(int(dbx)%3, int(dby)%3)
		m := int(margin % 4)

		// Reference definition: the rectangles conflict iff neither axis gap
		// exceeds the margin (Chebyshev separation ≤ margin).
		gapConflict := func(a, b geom.Rect) bool {
			return b.XA-a.XB <= m && a.XA-b.XB <= m && b.YA-a.YB <= m && a.YA-b.YB <= m
		}
		if zoneConflict(curA, curB, m) != gapConflict(curA, curB) {
			t.Fatalf("zoneConflict(%v, %v, %d) disagrees with Chebyshev-gap definition", curA, curB, m)
		}

		// Symmetry.
		if zoneConflict(curA, curB, m) != zoneConflict(curB, curA, m) {
			t.Fatalf("zoneConflict not symmetric for %v, %v at margin %d", curA, curB, m)
		}

		// Translation invariance.
		dx, dy := int(tx), int(ty)
		if zoneConflict(nextA, curB, m) != zoneConflict(nextA.Translate(dx, dy), curB.Translate(dx, dy), m) {
			t.Fatalf("zoneConflict not translation-invariant under (%d,%d) for %v, %v margin %d",
				dx, dy, nextA, curB, m)
		}

		// D4 invariance via the canonicalization transform. Build a job whose
		// hazard window covers everything, canonicalize it, and push all four
		// rectangles through the resulting isometry.
		hazard := curA.Union(nextA).Union(curB).Union(nextB).Expand(1)
		rj := route.RJ{Start: curA, Goal: nextA, Hazard: hazard}
		canon, tr := synth.Canonicalize(rj)
		if canon.Hazard.XA != 1 || canon.Hazard.YA != 1 {
			t.Fatalf("canonical hazard window %v not anchored at (1,1)", canon.Hazard)
		}
		if got := tr.Apply(rj.Hazard); got != canon.Hazard {
			t.Fatalf("transform maps hazard %v to %v, canonical says %v", rj.Hazard, got, canon.Hazard)
		}
		for _, r := range []geom.Rect{curA, nextA, curB, nextB} {
			if back := tr.Invert(tr.Apply(r)); back != r {
				t.Fatalf("transform round-trip moved %v to %v", r, back)
			}
		}
		if zoneConflict(nextA, nextB, m) != zoneConflict(tr.Apply(nextA), tr.Apply(nextB), m) {
			t.Fatalf("zoneConflict not D4-invariant under %+v for %v, %v margin %d", tr, nextA, nextB, m)
		}
		if zoneConflict(curA, curB, m) != zoneConflict(tr.Apply(curA), tr.Apply(curB), m) {
			t.Fatalf("zoneConflict not D4-invariant under %+v for %v, %v margin %d", tr, curA, curB, m)
		}

		// Canonicalization is idempotent: the canonical job is its own
		// canonical form (its transform may differ, the fixed point is the job).
		if again, _ := synth.Canonicalize(canon); again != canon {
			t.Fatalf("Canonicalize not idempotent: %+v re-canonicalized to %+v", canon, again)
		}
	})
}
