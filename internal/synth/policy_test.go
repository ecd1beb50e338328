package synth

import (
	"testing"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/policy"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/smg"
)

// mapPolicy is the hash-map strategy a Policy replaced: the oracle the
// packed form is checked against.
type mapPolicy map[geom.Rect]action.Action

// oraclePolicy builds the map the model's strategy used to convert to.
func oraclePolicy(m *smg.Model, st mdp.Strategy) mapPolicy {
	out := mapPolicy{}
	for id := 0; id < m.NumPositions(); id++ {
		d, _ := m.RectOf(mdp.StateID(id))
		if act, ok := st.Action(m.M, mdp.StateID(id)); ok && act >= 0 {
			out[d] = action.Action(act)
		}
	}
	return out
}

// mapApply and mapInvert are the map-based D4 transforms.
func mapApply(t Transform, p mapPolicy) mapPolicy {
	out := make(mapPolicy, len(p))
	for d, a := range p {
		out[t.Apply(d)] = conjTable[t.Op][a]
	}
	return out
}

func mapInvert(t Transform, p mapPolicy) mapPolicy {
	out := make(mapPolicy, len(p))
	for d, a := range p {
		out[t.Invert(d)] = conjInvTable[t.Op][a]
	}
	return out
}

// checkPolicy demands that p and want agree on every rectangle inside
// window grown by one cell, covered or not, that p's Len is the map's size
// and that Walk visits exactly the map's entries.
func checkPolicy(t *testing.T, what string, p policy.Policy, want mapPolicy, window geom.Rect) {
	t.Helper()
	if p.Len() != len(want) {
		t.Fatalf("%s: Len %d, map %d", what, p.Len(), len(want))
	}
	w := window.Expand(1)
	for ya := w.YA; ya <= w.YB; ya++ {
		for yb := ya; yb <= w.YB; yb++ {
			for xa := w.XA; xa <= w.XB; xa++ {
				for xb := xa; xb <= w.XB; xb++ {
					d := geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb}
					a, ok := p.Lookup(d)
					wa, wok := want[d]
					if ok != wok || (ok && a != wa) {
						t.Fatalf("%s: Lookup(%v) = %v, %v; map %v, %v", what, d, a, ok, wa, wok)
					}
				}
			}
		}
	}
	walked := 0
	p.Walk(func(d geom.Rect, a action.Action) {
		if wa, ok := want[d]; !ok || wa != a {
			t.Fatalf("%s: Walk yields %v at %v; map %v, %v", what, a, d, wa, ok)
		}
		walked++
	})
	if walked != len(want) {
		t.Fatalf("%s: Walk visited %d rectangles, map has %d", what, walked, len(want))
	}
}

// randomWindow draws a routing job on a w×h chip with its synthesis field
// and model options: droplets of 1–4 cells a side, hazard windows clipped
// at the chip edges, a dispense job one time in five, morphing one time in
// three, up to two obstacles, and fields that are all-healthy (the unit
// path), uniformly worn, or patchy with dead cells.
func randomWindow(src *randx.Source, w, h int) (route.RJ, action.ForceField, smg.ModelOptions) {
	dw, dh := src.IntRange(1, 4), src.IntRange(1, 4)
	at := func() geom.Rect {
		x, y := src.IntRange(1, w-dw+1), src.IntRange(1, h-dh+1)
		return geom.Rect{XA: x, YA: y, XB: x + dw - 1, YB: y + dh - 1}
	}
	var rj route.RJ
	if src.Bool(0.2) {
		rj = NormalizeDispense(route.RJ{Dispense: true, Goal: at()}, w, h)
	} else {
		rj.Start, rj.Goal = at(), at()
		rj.Hazard = route.Zone(rj.Start, rj.Goal, w, h)
	}
	opt := smg.DefaultModelOptions()
	opt.AllowMorph = src.Bool(1.0 / 3)
	for n := src.IntN(3); n > 0; n-- {
		b := geom.Rect{XA: src.IntRange(rj.Hazard.XA, rj.Hazard.XB), YA: src.IntRange(rj.Hazard.YA, rj.Hazard.YB)}
		b.XB, b.YB = b.XA+src.IntN(3), b.YA+src.IntN(3)
		if !b.Overlaps(rj.Start) {
			opt.Blocked = append(opt.Blocked, b)
		}
	}
	levels := []float64{1, 0.81, 0.64, 0.49, 0}
	forces := make([]float64, w*h)
	switch src.IntN(3) {
	case 0:
		for i := range forces {
			forces[i] = 1
		}
	case 1:
		for i := range forces {
			forces[i] = 0.81
		}
	default:
		for i := range forces {
			forces[i] = levels[src.Choose([]float64{6, 3, 2, 1, 0.3})]
		}
	}
	field := func(x, y int) float64 {
		if x < 1 || y < 1 || x > w || y > h {
			return 0
		}
		return forces[(y-1)*w+x-1]
	}
	return rj, field, opt
}

// TestPackedPolicyMatchesMap checks the packed policy against the map it
// replaced over random windows: the model's strategy, the unit path's,
// and all eight dihedral images of each, forward and back.
func TestPackedPolicyMatchesMap(t *testing.T) {
	const w, h = 24, 14
	src := randx.New(24)
	n := 60
	if testing.Short() {
		n = 15
	}
	opts := DefaultOptions()
	var morphed, obstructed, dispensed, unit int
	for i := 0; i < n; i++ {
		rj, field, mopt := randomWindow(src, w, h)
		if len(mopt.Blocked) > 0 {
			obstructed++
		}
		if rj.Dispense {
			dispensed++
		}
		if smg.UnitWindow(rj.Hazard, field, mopt) {
			unit++
		}
		m, err := smg.Induce(rj.Hazard, rj.Start, rj.Goal, field, mopt)
		if err != nil {
			t.Fatalf("window %d %v: %v", i, rj, err)
		}
		solved, err := m.M.MinExpectedReward(m.Goal, m.Hazard, opts.Solver)
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		want := oraclePolicy(m, solved.Strategy)
		got := m.Policy(solved.Strategy)
		checkPolicy(t, "model", got, want, rj.Hazard)
		shapes := map[[2]int]bool{}
		got.Walk(func(d geom.Rect, _ action.Action) { shapes[[2]int{d.Width(), d.Height()}] = true })
		if len(shapes) > 1 {
			morphed++
		}

		opt := opts
		opt.Model = mopt
		if res, err := Synthesize(rj, field, opt); err != nil {
			t.Fatalf("window %d: %v", i, err)
		} else if res.Exists() {
			checkPolicy(t, "synthesized", res.Policy, want, rj.Hazard)
		}

		for op := uint8(0); op < numOps; op++ {
			tf := Transform{Op: op, X0: rj.Hazard.XA, Y0: rj.Hazard.YA, W: rj.Hazard.Width(), H: rj.Hazard.Height()}
			applied, wantApplied := tf.ApplyPolicy(got), mapApply(tf, want)
			checkPolicy(t, "apply", applied, wantApplied, tf.Apply(rj.Hazard))
			checkPolicy(t, "apply∘invert", tf.InvertPolicy(applied), mapInvert(tf, wantApplied), rj.Hazard)
			checkPolicy(t, "invert", tf.InvertPolicy(got), mapInvert(tf, want), tf.Invert(rj.Hazard))
		}
	}
	if morphed == 0 || obstructed == 0 || dispensed == 0 || unit == 0 {
		t.Errorf("sample lacks a kind of window: %d with several shapes, %d obstructed, %d dispense, %d all-healthy",
			morphed, obstructed, dispensed, unit)
	}
}

// TestPolicyOfMatchesMap: packing arbitrary entries, duplicates included,
// gives the map those entries build, and repacking a walk gives the same
// policy back.
func TestPolicyOfMatchesMap(t *testing.T) {
	src := randx.New(7)
	window := geom.Rect{XA: 3, YA: 2, XB: 14, YB: 10}
	for i := 0; i < 50; i++ {
		var entries []policy.Entry
		want := mapPolicy{}
		for k := src.IntN(40); k > 0; k-- {
			dw, dh := src.IntRange(1, 3), src.IntRange(1, 3)
			x, y := src.IntRange(window.XA, window.XB-dw+1), src.IntRange(window.YA, window.YB-dh+1)
			e := policy.Entry{D: geom.Rect{XA: x, YA: y, XB: x + dw - 1, YB: y + dh - 1}, A: action.Action(src.IntN(action.NumActions))}
			entries = append(entries, e)
			want[e.D] = e.A
		}
		p := policy.Of(entries)
		checkPolicy(t, "Of", p, want, window)
		var walked []policy.Entry
		p.Walk(func(d geom.Rect, a action.Action) { walked = append(walked, policy.Entry{D: d, A: a}) })
		if diff := policy.Of(walked).Diff(p); diff != "" {
			t.Fatalf("repacked walk: %s", diff)
		}
	}
}
