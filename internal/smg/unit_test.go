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
// induced model's sizes, and its value and policy are what
// MinExpectedReward returns on that model, bit for bit.
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
			opt = ModelOptions{Blocked: opt.Blocked} // cardinal moves only
		}
		if !UnitWindow(bounds, field) {
			t.Fatalf("job %d: an all-healthy window is not a unit window", i)
		}
		u, err := ar.InduceUnit(bounds, start, goal, opt)
		if err != nil {
			t.Fatal(err)
		}
		u.Solve()
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
		if got, want := u.Value(), res.Values[m.Init]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("job %d: value %v, induced %v", i, got, want)
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

// TestUnitWindow: one cell of the bounds just below force 1 rules the unit
// model out; cells outside the bounds do not matter.
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
	for _, c := range []struct {
		name  string
		field func(x, y int) float64
		want  bool
	}{
		{"healthy", healthyField, true},
		{"dead ring outside the bounds", outside, true},
		{"one cell just below 1", dent, false},
	} {
		if got := UnitWindow(bounds, c.field); got != c.want {
			t.Errorf("%s: UnitWindow = %v, want %v", c.name, got, c.want)
		}
	}
}

// unitJob decodes a routing job for FuzzUnitMatchesInduce, one byte per
// field, reading 0 past the end of data:
//
//	0–3   bounds width and height (1–12), corner (1–4, 1–4)
//	4–7   droplet width and height (1–4), start offset in the bounds
//	8–11  goal width and height, goal offset in the bounds
//	12    bit 0 AllowMorph, bit 1 AllowDouble, bit 2 AllowOrdinal
//	13    number of blocked rectangles (0–4), then 4 bytes each:
//	      offset in the bounds, width and height (1–3, clipped to it)
func unitJob(data []byte) (bounds, start, goal geom.Rect, opt ModelOptions) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b % n
	}
	bw, bh := 1+next(12), 1+next(12)
	x0, y0 := 1+next(4), 1+next(4)
	bounds = rect(x0, y0, x0+bw-1, y0+bh-1)
	in := func(w, h int) geom.Rect { // w×h at the next offset in bounds
		xa, ya := x0+next(bw-w+1), y0+next(bh-h+1)
		return rect(xa, ya, xa+w-1, ya+h-1)
	}
	w, h := 1+next(min(4, bw)), 1+next(min(4, bh))
	start = in(w, h)
	gw, gh := 1+next(bw), 1+next(bh)
	goal = in(gw, gh)
	flags := next(8)
	opt = ModelOptions{AllowMorph: flags&1 != 0, AllowDouble: flags&2 != 0, AllowOrdinal: flags&4 != 0}
	for k := next(5); k > 0; k-- {
		xa, ya := x0+next(bw), y0+next(bh)
		opt.Blocked = append(opt.Blocked, rect(xa, ya, min(xa+next(3), bounds.XB), min(ya+next(3), bounds.YB)))
	}
	return bounds, start, goal, opt
}

// FuzzUnitMatchesInduce: on fuzzer-shaped all-healthy jobs the Unit model
// has the induced model's sizes, and MinExpectedReward's value bits and
// policy.
func FuzzUnitMatchesInduce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{11, 9, 0, 0, 2, 2, 0, 0, 3, 3, 8, 6, 7, 1, 5, 4, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		bounds, start, goal, opt := unitJob(data)
		var ar Arena
		u, err := ar.InduceUnit(bounds, start, goal, opt)
		if err != nil {
			t.Fatal(err)
		}
		u.Solve()
		m, err := Induce(bounds, start, goal, healthyField, opt)
		if err != nil {
			t.Fatal(err)
		}
		if u.States != m.M.NumStates() || u.Transitions != m.M.NumTransitions() || u.Choices != m.M.NumChoices() {
			t.Fatalf("sizes %d/%d/%d, induced %d/%d/%d", u.States, u.Transitions, u.Choices,
				m.M.NumStates(), m.M.NumTransitions(), m.M.NumChoices())
		}
		res, err := m.M.MinExpectedReward(m.Goal, m.Hazard, mdp.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := u.Value(), res.Values[m.Init]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("value %v, induced %v", got, want)
		}
		if diff := u.Policy().Diff(m.Policy(res.Strategy)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestUnitBuildAllocs: a warmed Arena builds and solves a Unit without
// allocating, whichever of the jobs it has already seen comes next.
func TestUnitBuildAllocs(t *testing.T) {
	obstructed := DefaultModelOptions()
	obstructed.Blocked = []geom.Rect{rect(14, 12, 17, 19)}
	morph := obstructed
	morph.AllowMorph = true
	bounds, goal := rect(1, 1, 30, 30), rect(27, 27, 30, 30)
	jobs := []struct {
		start geom.Rect
		opt   ModelOptions
	}{
		{rect(1, 1, 4, 4), obstructed},
		{rect(1, 1, 3, 3), morph},
	}
	var ar Arena
	build := func() {
		for _, j := range jobs {
			u, err := ar.InduceUnit(bounds, j.start, goal, j.opt)
			if err != nil {
				t.Fatal(err)
			}
			u.Solve()
		}
	}
	build()
	if n := testing.AllocsPerRun(20, build); n != 0 {
		t.Errorf("InduceUnit + Solve on a warmed arena: %v allocations, want 0", n)
	}
}
