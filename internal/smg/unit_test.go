package smg

import (
	"math"
	"math/rand"
	"testing"

	"meda/internal/geom"
	"meda/internal/mdp"
)

// randIn returns a w×h rectangle inside r (which must fit it).
func randIn(rng *rand.Rand, r geom.Rect, w, h int) geom.Rect {
	xa := r.XA + rng.Intn(r.Width()-w+1)
	ya := r.YA + rng.Intn(r.Height()-h+1)
	return rect(xa, ya, xa+w-1, ya+h-1)
}

// TestUnitMatchesInducedModel: on all-healthy windows the Unit model has the
// induced model's sizes, and its distances, value and policy are what
// MinExpectedReward returns on that model, bit for bit, with one sweep.
func TestUnitMatchesInducedModel(t *testing.T) {
	const cw, ch = 14, 11
	field := func(x, y int) float64 { // healthy chip, 0 off-chip
		if x < 1 || y < 1 || x > cw || y > ch {
			return 0
		}
		return 1
	}
	chipRect := rect(1, 1, cw, ch)
	rng := rand.New(rand.NewSource(7))
	var ar, full Arena // recycled across jobs, as in synthesis
	unreached := 0
	for i := 0; i < 400; i++ {
		w, h := 1+rng.Intn(3), 1+rng.Intn(3)
		bounds := randIn(rng, chipRect, w+rng.Intn(cw-w+1), h+rng.Intn(ch-h+1))
		start := randIn(rng, bounds, w, h)
		goal := randIn(rng, bounds, min(w+rng.Intn(2), bounds.Width()), min(h+rng.Intn(2), bounds.Height()))
		opt := DefaultModelOptions()
		opt.AllowMorph = rng.Intn(2) == 0
		for k := rng.Intn(4); k > 0; k-- {
			opt.Blocked = append(opt.Blocked, randIn(rng, bounds, 1, 1))
		}
		if rng.Intn(6) == 0 {
			opt.Blocked = append(opt.Blocked, goal)
		}
		if rng.Intn(6) == 0 {
			opt = ModelOptions{Blocked: opt.Blocked} // the zero options mean the defaults
		}
		if !UnitWindow(bounds, field, opt) {
			t.Fatalf("job %d: an all-healthy window is not a unit window", i)
		}
		u, err := ar.InduceUnit(bounds, start, goal, opt)
		if err != nil {
			t.Fatal(err)
		}
		dmax := u.Solve()
		m, err := full.Induce(bounds, start, goal, field, opt)
		if err != nil {
			t.Fatal(err)
		}
		if u.States != m.M.NumStates() || u.Transitions != m.M.NumTransitions() || u.Choices != m.M.NumChoices() {
			t.Fatalf("job %d: sizes %d/%d/%d, induced %d/%d/%d", i, u.States, u.Transitions, u.Choices,
				m.M.NumStates(), m.M.NumTransitions(), m.M.NumChoices())
		}
		res, err := m.M.MinExpectedReward(m.Goal, m.Hazard, mdp.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 1 {
			t.Fatalf("job %d: the induced model took %d sweeps, want a seeded one", i, res.Iterations)
		}
		if got, want := u.Value(), res.Values[m.Init]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("job %d: value %v, induced %v", i, got, want)
		}
		far := 0.0
		for s := 0; s < m.NumPositions(); s++ {
			if v := res.Values[s]; !math.IsInf(v, 1) {
				far = max(far, v)
			}
		}
		if float64(dmax) != far {
			t.Fatalf("job %d: dmax %d, induced model's largest finite value %v", i, dmax, far)
		}
		if math.IsInf(u.Value(), 1) {
			unreached++
		}
		got, want := u.Policy(), m.Policy(res.Strategy)
		if diff := got.Diff(want); diff != "" {
			t.Fatalf("job %d: %s", i, diff)
		}
	}
	if unreached == 0 {
		t.Error("no job with an unreachable goal in the sample")
	}
}

// TestUnitWindow: one cell of the bounds just below force 1, or an action
// cost other than 1, rules the unit model out; cells outside the bounds do
// not matter.
func TestUnitWindow(t *testing.T) {
	bounds := rect(3, 3, 8, 8)
	dent := func(x, y int) float64 {
		if x == 8 && y == 8 {
			return math.Nextafter(1, 0)
		}
		return 1
	}
	outside := func(x, y int) float64 {
		if x >= bounds.XA && x <= bounds.XB && y >= bounds.YA && y <= bounds.YB {
			return 1
		}
		return 0
	}
	cost2 := DefaultModelOptions()
	cost2.ActionCost = 2
	for _, c := range []struct {
		name  string
		field func(x, y int) float64
		opt   ModelOptions
		want  bool
	}{
		{"healthy", healthyField, DefaultModelOptions(), true},
		{"zero options", healthyField, ModelOptions{}, true},
		{"dead ring outside the bounds", outside, DefaultModelOptions(), true},
		{"one cell just below 1", dent, DefaultModelOptions(), false},
		{"action cost 2", healthyField, cost2, false},
	} {
		if got := UnitWindow(bounds, c.field, c.opt); got != c.want {
			t.Errorf("%s: UnitWindow = %v, want %v", c.name, got, c.want)
		}
	}
}
