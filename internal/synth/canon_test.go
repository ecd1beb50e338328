package synth

import (
	"math"
	"testing"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/route"
)

// TestTransformRoundTrip: Invert must undo Apply for every dihedral element
// on rectangles strictly inside the window.
func TestTransformRoundTrip(t *testing.T) {
	rects := []geom.Rect{
		rect(1, 1, 3, 3), rect(2, 5, 4, 6), rect(7, 2, 10, 4), rect(1, 7, 10, 7),
	}
	for op := uint8(0); op < numOps; op++ {
		tf := Transform{Op: op, X0: 1, Y0: 1, W: 10, H: 7}
		for _, r := range rects {
			got := tf.Invert(tf.Apply(r))
			if got != r {
				t.Errorf("op %d: round trip %v -> %v -> %v", op, r, tf.Apply(r), got)
			}
		}
	}
}

// TestTransformPreservesShapeArea: dihedral images keep area, and the
// canonical window contains every transformed rect that the original window
// contained.
func TestTransformStaysInWindow(t *testing.T) {
	win := rect(3, 4, 12, 8)
	inner := []geom.Rect{rect(3, 4, 5, 6), rect(10, 6, 12, 8), rect(3, 8, 12, 8)}
	for op := uint8(0); op < numOps; op++ {
		tf := Transform{Op: op, X0: win.XA, Y0: win.YA, W: win.Width(), H: win.Height()}
		w, h := tf.dims()
		cwin := rect(1, 1, w, h)
		for _, r := range inner {
			img := tf.Apply(r)
			if img.Area() != r.Area() {
				t.Errorf("op %d: area changed: %v -> %v", op, r, img)
			}
			if !cwin.ContainsRect(img) {
				t.Errorf("op %d: image %v of %v escapes canonical window %v", op, img, r, cwin)
			}
		}
	}
}

// TestCanonicalizeUnifiesSymmetryClass: every translated/rotated/reflected
// image of a job must canonicalize to the identical representative.
func TestCanonicalizeUnifiesSymmetryClass(t *testing.T) {
	base := route.RJ{
		Start:  rect(1, 1, 3, 3),
		Goal:   rect(9, 5, 11, 7),
		Hazard: rect(1, 1, 12, 8),
	}
	want, _ := Canonicalize(base)
	seen := 0
	for op := uint8(0); op < numOps; op++ {
		tf := Transform{Op: op, X0: base.Hazard.XA, Y0: base.Hazard.YA,
			W: base.Hazard.Width(), H: base.Hazard.Height()}
		img := route.RJ{Start: tf.Apply(base.Start), Goal: tf.Apply(base.Goal), Hazard: tf.Apply(base.Hazard)}
		for _, d := range []struct{ dx, dy int }{{0, 0}, {5, 3}, {17, 9}} {
			moved := route.RJ{
				Start:  img.Start.Translate(d.dx, d.dy),
				Goal:   img.Goal.Translate(d.dx, d.dy),
				Hazard: img.Hazard.Translate(d.dx, d.dy),
			}
			got, _ := Canonicalize(moved)
			if got.Start != want.Start || got.Goal != want.Goal || got.Hazard != want.Hazard {
				t.Fatalf("op %d shift %+v: canonical form %+v, want %+v", op, d, got, want)
			}
			seen++
		}
	}
	if seen != 24 {
		t.Fatalf("checked %d images, want 24", seen)
	}
}

// TestCanonicalizeTieBreak: a job symmetric under a dihedral element has
// several images equal to its canonical form, and Canonicalize must pick
// the same transform every time — the lowest op among the tied images —
// because the transform decides which of the mirror-image strategies a
// cached canonical policy is mapped back to.
func TestCanonicalizeTieBreak(t *testing.T) {
	jobs := []route.RJ{
		// Corner to opposite corner of a square: the diagonal swap ties.
		{Start: rect(5, 5, 7, 7), Goal: rect(12, 12, 14, 14), Hazard: rect(5, 5, 14, 14)},
		// Centered in a square: all eight images tie.
		{Start: rect(8, 8, 10, 10), Goal: rect(8, 8, 10, 10), Hazard: rect(5, 5, 13, 13)},
	}
	for _, rj := range jobs {
		want, wantT := Canonicalize(rj)
		ties := 0
		for op := uint8(0); op < numOps; op++ {
			tf := wantT
			tf.Op = op
			w, h := tf.dims()
			img := route.RJ{Start: tf.Apply(rj.Start), Goal: tf.Apply(rj.Goal), Hazard: rect(1, 1, w, h)}
			if img != want {
				continue
			}
			if ties == 0 && op != wantT.Op {
				t.Errorf("%v: chose op %d, want the lowest tied op %d", rj, wantT.Op, op)
			}
			ties++
		}
		if ties < 2 {
			t.Fatalf("%v: %d images tie; the job is not symmetric", rj, ties)
		}
		for i := 0; i < 64; i++ {
			if got, gotT := Canonicalize(rj); got != want || gotT != wantT {
				t.Fatalf("%v: call %d returned %v %+v, first call %v %+v", rj, i, got, gotT, want, wantT)
			}
		}
	}
}

// TestConjugationTables: conjugation must preserve action class, and the
// inverse table must invert the forward one for every dihedral element.
func TestConjugationTables(t *testing.T) {
	for op := uint8(0); op < numOps; op++ {
		for a := action.Action(0); a < action.NumActions; a++ {
			b := conjTable[op][a]
			if conjInvTable[op][b] != a {
				t.Fatalf("op %d: conjInv(conj(%v)) = %v", op, a, conjInvTable[op][b])
			}
			ca, cb := a.Class(), b.Class()
			swapped := op&opSwap != 0
			switch {
			case ca == action.Widen && swapped:
				if cb != action.Heighten {
					t.Fatalf("op %d: %v (widen) -> %v, want heighten", op, a, b)
				}
			case ca == action.Heighten && swapped:
				if cb != action.Widen {
					t.Fatalf("op %d: %v (heighten) -> %v, want widen", op, a, b)
				}
			default:
				if ca != cb {
					t.Fatalf("op %d: class changed %v -> %v", op, a, b)
				}
			}
		}
		if conjTable[0][action.MoveNE] != action.MoveNE {
			t.Fatal("identity op must fix every action")
		}
	}
}

// TestCanonicalSynthesisEquivalence is the soundness property behind the
// canonical strategy cache: synthesizing the canonical job on a uniform
// field and inverting the policy must give a strategy exactly as good as
// synthesizing the original job directly.
func TestCanonicalSynthesisEquivalence(t *testing.T) {
	worn := func(x, y int) float64 { return 0.64 }
	jobs := []route.RJ{
		{Start: rect(1, 1, 3, 3), Goal: rect(8, 6, 10, 8), Hazard: rect(1, 1, 10, 8)},
		{Start: rect(9, 2, 11, 4), Goal: rect(2, 2, 4, 4), Hazard: rect(1, 1, 12, 6)},
		{Start: rect(4, 9, 6, 11), Goal: rect(4, 2, 6, 4), Hazard: rect(3, 1, 8, 12)},
	}
	for _, rj := range jobs {
		direct, err := Synthesize(rj, worn, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		crj, tf := Canonicalize(rj)
		canon, err := Synthesize(crj, worn, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct.Value-canon.Value) > 1e-6 {
			t.Fatalf("%v: value %v direct vs %v canonical", rj, direct.Value, canon.Value)
		}
		// The inverted canonical policy must be executable and optimal:
		// every droplet position it covers must pick an action the direct
		// synthesis considers optimal too. Tie-breaking can differ, so
		// compare reachable-policy sizes and spot-check the start action's
		// effect rather than demanding identical maps.
		inv := tf.InvertPolicy(canon.Policy)
		if inv.Len() != direct.Policy.Len() {
			t.Fatalf("%v: policy sizes differ: %d inverted vs %d direct", rj, inv.Len(), direct.Policy.Len())
		}
		direct.Policy.Walk(func(d geom.Rect, _ action.Action) {
			if _, ok := inv.Lookup(d); !ok {
				t.Fatalf("%v: inverted policy missing droplet %v", rj, d)
			}
		})
		if _, ok := inv.Lookup(rj.Start); !ok {
			t.Fatalf("%v: inverted policy missing the start position", rj)
		}
	}
}
