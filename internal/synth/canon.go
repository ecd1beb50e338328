// D4 canonicalization of routing jobs. Two routing jobs that differ only by
// a translation, rotation, or reflection of the (hazard window, start, goal)
// triple have strategies that differ by exactly that symmetry — provided the
// force field inside the window is uniform, so the field itself is invariant
// under the transformation. Canonicalize maps a job to a canonical
// representative of its symmetry class: the window is translated to origin
// (1,1) and the dihedral-group element that lexicographically minimizes the
// (width, height, start, goal) tuple is applied. Keying a strategy store on
// the canonical form turns per-position entries into per-shape entries: all
// eight images of a job at every position on the chip share one entry. The
// scheduler's offline library (sched.Library) is keyed this way.
//
// The returned Transform converts between the two coordinate spaces, both
// for rectangles and for whole policies; action identities are conjugated
// through a table derived at init by geometric probing (for each group
// element, the image of each action is the unique action whose effect on a
// transformed probe droplet matches the transformed effect — this also
// verifies at startup that the 20-action alphabet is closed under D4).
package synth

import (
	"fmt"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/route"
)

// Transform is one element of the symmetry group used by Canonicalize: a
// translation of the hazard window to origin followed by a dihedral
// operation inside the window. It maps original-job coordinates to
// canonical coordinates and back.
type Transform struct {
	// Op encodes the dihedral element: bit 0 transposes x/y, bit 1 flips x,
	// bit 2 flips y (flips are applied after the transpose, about the
	// transposed window's axes).
	Op uint8
	// X0, Y0, W, H frame the original hazard window.
	X0, Y0, W, H int
}

const (
	opSwap  = 1
	opFlipX = 2
	opFlipY = 4
	numOps  = 8
)

// dims returns the canonical window's width and height.
func (t Transform) dims() (int, int) {
	if t.Op&opSwap != 0 {
		return t.H, t.W
	}
	return t.W, t.H
}

// point maps an original-coordinate cell into canonical space.
func (t Transform) point(x, y int) (int, int) {
	u, v := x-t.X0, y-t.Y0
	if t.Op&opSwap != 0 {
		u, v = v, u
	}
	w, h := t.dims()
	if t.Op&opFlipX != 0 {
		u = w - 1 - u
	}
	if t.Op&opFlipY != 0 {
		v = h - 1 - v
	}
	return u + 1, v + 1
}

// unpoint maps a canonical-space cell back to original coordinates.
func (t Transform) unpoint(x, y int) (int, int) {
	u, v := x-1, y-1
	w, h := t.dims()
	if t.Op&opFlipX != 0 {
		u = w - 1 - u
	}
	if t.Op&opFlipY != 0 {
		v = h - 1 - v
	}
	if t.Op&opSwap != 0 {
		u, v = v, u
	}
	return u + t.X0, v + t.Y0
}

// Apply maps a rectangle from original to canonical coordinates.
func (t Transform) Apply(r geom.Rect) geom.Rect {
	xa, ya := t.point(r.XA, r.YA)
	xb, yb := t.point(r.XB, r.YB)
	return normRect(xa, ya, xb, yb)
}

// Invert maps a rectangle from canonical back to original coordinates.
func (t Transform) Invert(r geom.Rect) geom.Rect {
	xa, ya := t.unpoint(r.XA, r.YA)
	xb, yb := t.unpoint(r.XB, r.YB)
	return normRect(xa, ya, xb, yb)
}

func normRect(xa, ya, xb, yb int) geom.Rect {
	if xa > xb {
		xa, xb = xb, xa
	}
	if ya > yb {
		ya, yb = yb, ya
	}
	return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb}
}

// ApplyPolicy maps a policy from original to canonical coordinates,
// conjugating each action through the dihedral element: an index
// permutation of each shape's action grid.
func (t Transform) ApplyPolicy(p Policy) Policy {
	return p.Remap(t.Apply, &conjTable[t.Op])
}

// InvertPolicy maps a canonical-space policy back to original coordinates —
// the de-canonicalization applied after a Library hit.
func (t Transform) InvertPolicy(p Policy) Policy {
	return p.Remap(t.Invert, &conjInvTable[t.Op])
}

// Canonicalize returns the canonical representative of the job's symmetry
// class and the transform from the job's coordinates to the canonical ones.
// The canonical job's hazard window starts at (1,1); among the eight
// dihedral images the one minimizing the (width, height, start, goal) tuple
// lexicographically is chosen, so every translated/rotated/reflected copy
// of a job maps to the identical canonical job. The caller is responsible
// for only treating two jobs as equivalent when the force field over their
// windows is uniform (the Library keys only all-healthy windows, see
// chip.Healthy); canonicalization itself is pure geometry.
//
//meda:hotpath
func Canonicalize(rj route.RJ) (route.RJ, Transform) {
	base := Transform{X0: rj.Hazard.XA, Y0: rj.Hazard.YA, W: rj.Hazard.Width(), H: rj.Hazard.Height()}
	var best route.RJ
	var bestT Transform
	for op := uint8(0); op < numOps; op++ {
		t := base
		t.Op = op
		w, h := t.dims()
		cand := route.RJ{
			Start:  t.Apply(rj.Start),
			Goal:   t.Apply(rj.Goal),
			Hazard: geom.Rect{XA: 1, YA: 1, XB: w, YB: h},
		}
		if op == 0 || lessRJ(cand, best) {
			best, bestT = cand, t
		}
	}
	return best, bestT
}

// lessRJ orders candidate canonical forms: window dims, then start, then
// goal, each lexicographically.
func lessRJ(a, b route.RJ) bool {
	if a.Hazard.XB != b.Hazard.XB {
		return a.Hazard.XB < b.Hazard.XB
	}
	if a.Hazard.YB != b.Hazard.YB {
		return a.Hazard.YB < b.Hazard.YB
	}
	if a.Start != b.Start {
		return lessRect(a.Start, b.Start)
	}
	return lessRect(a.Goal, b.Goal)
}

func lessRect(a, b geom.Rect) bool {
	if a.XA != b.XA {
		return a.XA < b.XA
	}
	if a.YA != b.YA {
		return a.YA < b.YA
	}
	if a.XB != b.XB {
		return a.XB < b.XB
	}
	return a.YB < b.YB
}

// conjTable[op][a] is the action whose effect in the transformed frame
// matches action a's effect in the original frame; conjInvTable is the
// per-op inverse permutation.
var conjTable, conjInvTable [numOps][action.NumActions]action.Action

func init() {
	// Probe with an asymmetric droplet so every action's Apply image is
	// distinct and shape changes (widen vs heighten) are distinguishable.
	probe := geom.Rect{XA: 0, YA: 0, XB: 2, YB: 1}
	// The linear part of the dihedral element (flips as negations; actions
	// are translation-covariant, so the window-centered flip conjugates
	// identically).
	lin := func(op uint8, x, y int) (int, int) {
		if op&opSwap != 0 {
			x, y = y, x
		}
		if op&opFlipX != 0 {
			x = -x
		}
		if op&opFlipY != 0 {
			y = -y
		}
		return x, y
	}
	linRect := func(op uint8, r geom.Rect) geom.Rect {
		xa, ya := lin(op, r.XA, r.YA)
		xb, yb := lin(op, r.XB, r.YB)
		return normRect(xa, ya, xb, yb)
	}
	for op := uint8(0); op < numOps; op++ {
		probeT := linRect(op, probe)
		for a := action.Action(0); a < action.NumActions; a++ {
			want := linRect(op, a.Apply(probe))
			found := false
			for b := action.Action(0); b < action.NumActions; b++ {
				if b.Apply(probeT) == want {
					conjTable[op][a] = b
					conjInvTable[op][b] = a
					found = true
					break
				}
			}
			if !found {
				panic(fmt.Sprintf("synth: action alphabet not closed under D4: no image for %v under op %d", a, op))
			}
		}
	}
}
