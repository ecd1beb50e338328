package synth

import (
	"math"
	"math/rand"
	"testing"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/spec"
)

// chipField is a healthy W×H chip: 1 on every cell, 0 off-chip, as
// action.ForceField requires.
func chipField(w, h int) action.ForceField {
	return func(x, y int) float64 {
		if x < 1 || y < 1 || x > w || y > h {
			return 0
		}
		return 1
	}
}

// randomRect returns a w×h rectangle inside r (which must fit it).
func randomRect(rng *rand.Rand, r geom.Rect, w, h int) geom.Rect {
	xa := r.XA + rng.Intn(r.Width()-w+1)
	ya := r.YA + rng.Intn(r.Height()-h+1)
	return geom.Rect{XA: xa, YA: ya, XB: xa + w - 1, YB: ya + h - 1}
}

// randomUnitJob draws an all-healthy routing job: a window anywhere on a
// small chip (often against its edges), a droplet of random, often
// non-square shape, a goal at least its size, random obstacles (some over
// the goal or the start, sometimes a wall cutting the goal off), dispense
// jobs, starts inside the goal, and random alphabets and solvers.
func randomUnitJob(rng *rand.Rand) (route.RJ, action.ForceField, Options) {
	cw, ch := 6+rng.Intn(12), 6+rng.Intn(12)
	w, h := 1+rng.Intn(4), 1+rng.Intn(4)
	field := chipField(cw, ch)
	opt := DefaultOptions()
	opt.Model.AllowMorph = rng.Intn(3) == 0
	opt.Model.AllowDouble = rng.Intn(4) != 0
	opt.Model.AllowOrdinal = rng.Intn(4) != 0
	if rng.Intn(3) == 0 {
		opt.Solver.Method = mdp.Jacobi
	}
	chipRect := geom.Rect{XA: 1, YA: 1, XB: cw, YB: ch}

	var rj route.RJ
	if rng.Intn(6) == 0 {
		gw, gh := w+rng.Intn(2), h+rng.Intn(2)
		rj = route.RJ{Dispense: true, Goal: randomRect(rng, chipRect, gw, gh)}
		rj = NormalizeDispense(rj, cw, ch)
		w, h = rj.Start.Width(), rj.Start.Height()
	} else {
		hw := w + 1 + rng.Intn(cw-w)
		hh := h + 1 + rng.Intn(ch-h)
		hw, hh = min(hw, cw), min(hh, ch)
		rj.Hazard = randomRect(rng, chipRect, hw, hh)
		rj.Goal = randomRect(rng, rj.Hazard, min(w+rng.Intn(3), hw), min(h+rng.Intn(3), hh))
		if rng.Intn(8) == 0 {
			rj.Start = randomRect(rng, rj.Goal, w, h) // already satisfied
		} else {
			rj.Start = randomRect(rng, rj.Hazard, w, h)
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		ow, oh := 1+rng.Intn(3), 1+rng.Intn(3)
		opt.Model.Blocked = append(opt.Model.Blocked, randomRect(rng, rj.Hazard, min(ow, rj.Hazard.Width()), min(oh, rj.Hazard.Height())))
	}
	switch rng.Intn(8) {
	case 0:
		opt.Model.Blocked = append(opt.Model.Blocked, rj.Goal)
	case 1:
		opt.Model.Blocked = append(opt.Model.Blocked, rj.Start)
	case 2: // a wall across the window between start and goal
		if x := (rj.Start.XB + rj.Goal.XA) / 2; x > rj.Start.XB && x < rj.Goal.XA {
			opt.Model.Blocked = append(opt.Model.Blocked,
				geom.Rect{XA: x, YA: rj.Hazard.YA, XB: x, YB: rj.Hazard.YB})
		}
	}
	return rj, field, opt
}

// TestUnitPathMatchesFullSynthesis is the differential test of the unit
// path: on random all-healthy windows, Synthesize must take it and agree
// bit for bit with full synthesis over the induced MDP in Policy, Value,
// the Stats sizes and Iterations.
func TestUnitPathMatchesFullSynthesis(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var inf, inGoal, morph, jacobi, dispense, edge, reached int
	for i := 0; i < 1500; i++ {
		rj, field, opt := randomUnitJob(rng)
		before := telUnit.Value()
		got, err := Synthesize(rj, field, opt)
		if err != nil {
			t.Fatalf("job %d %+v: %v", i, rj, err)
		}
		if telUnit.Value() != before+1 {
			t.Fatalf("job %d %+v: took the full path", i, rj)
		}
		want, err := synthesize(new(smg.Arena), nil, rj, field, opt)
		if err != nil {
			t.Fatalf("job %d %+v: full synthesis: %v", i, rj, err)
		}
		if diff := diffResults(got, want); diff != "" {
			t.Fatalf("job %d %+v opt %+v: %s", i, rj, opt.Model, diff)
		}
		switch {
		case math.IsInf(got.Value, 1):
			inf++
			if got.Policy != nil {
				t.Fatalf("job %d: unreachable goal with a policy", i)
			}
		case got.Value == 0:
			inGoal++
		default:
			reached++
		}
		if opt.Model.AllowMorph {
			morph++
		}
		if opt.Solver.Method == mdp.Jacobi {
			jacobi++
		}
		if rj.Dispense {
			dispense++
		}
		if field(rj.Hazard.XA-1, rj.Hazard.YA) == 0 || field(rj.Hazard.XB+1, rj.Hazard.YB) == 0 ||
			field(rj.Hazard.XA, rj.Hazard.YA-1) == 0 || field(rj.Hazard.XA, rj.Hazard.YB+1) == 0 {
			edge++
		}
	}
	t.Logf("%d unreachable, %d start in goal, %d routed; %d morph, %d jacobi, %d dispense, %d chip edge",
		inf, inGoal, reached, morph, jacobi, dispense, edge)
	// Every kind of window the generator aims for must have come up.
	for name, n := range map[string]int{"unreachable": inf, "start in goal": inGoal,
		"routed": reached, "morph": morph, "jacobi": jacobi, "dispense": dispense, "chip edge": edge} {
		if n < 10 {
			t.Errorf("only %d %s jobs in the sample", n, name)
		}
	}
}

// TestUnitPathFallBack: windows or queries outside the unit path's
// preconditions take the full path, and get its result.
func TestUnitPathFallBack(t *testing.T) {
	rj := simpleRJ()
	dent := func(x, y int) float64 {
		if x == 10 && y == 10 {
			return math.Nextafter(1, 0)
		}
		return 1
	}
	pmax := DefaultOptions()
	pmax.Query = spec.RoutingQuery(spec.PMax)
	cost2 := DefaultOptions()
	cost2.Model.ActionCost = 2
	// The job's farthest positions are 7 king moves from the goal; seeding
	// needs MaxIter ≥ dmax + 2.
	capped := DefaultOptions()
	capped.Solver.MaxIter = 8
	coarse := DefaultOptions()
	coarse.Solver.Eps = 2
	retain := DefaultOptions()
	retain.RetainModel = true
	cases := []struct {
		name  string
		field action.ForceField
		opt   Options
	}{
		{"one cell just below 1", dent, DefaultOptions()},
		{"action cost 2", healthy, cost2},
		{"MaxIter < dmax+2", healthy, capped},
		{"Eps > 1", healthy, coarse},
		{"retained model", healthy, retain},
		{"Pmax", healthy, pmax},
	}
	for _, c := range cases {
		before := telUnit.Value()
		got, gerr := Synthesize(rj, c.field, c.opt)
		if telUnit.Value() != before {
			t.Errorf("%s: took the unit path", c.name)
		}
		want, werr := synthesize(new(smg.Arena), nil, rj, c.field, c.opt)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: error %v, full synthesis %v", c.name, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if diff := diffResults(got, want); diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		}
	}
	// At MaxIter = dmax + 2 the same job does take the unit path.
	capped.Solver.MaxIter = 9
	before := telUnit.Value()
	if _, err := Synthesize(rj, healthy, capped); err != nil {
		t.Fatal(err)
	}
	if telUnit.Value() != before+1 {
		t.Error("MaxIter = dmax+2: took the full path")
	}
}
