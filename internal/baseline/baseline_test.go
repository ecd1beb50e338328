package baseline

import (
	"testing"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/synth"
)

func rect(xa, ya, xb, yb int) geom.Rect { return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb} }

func job() route.RJ {
	return route.RJ{
		Start:  rect(1, 1, 3, 3),
		Goal:   rect(8, 8, 10, 10),
		Hazard: rect(1, 1, 10, 10),
	}
}

func TestShortestPathDiagonal(t *testing.T) {
	policy, cycles, err := ShortestPath(job(), smg.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 7 {
		t.Errorf("cycles = %d, want 7", cycles)
	}
	if a, _ := policy.Lookup(rect(1, 1, 3, 3)); a != action.MoveNE {
		t.Errorf("first action = %v, want aNE", a)
	}
}

// TestMatchesSynthesizerOnHealthyField: the baseline shortest path equals
// the Rmin synthesis value on a fully healthy field — they are the same
// optimization when nothing fails.
func TestMatchesSynthesizerOnHealthyField(t *testing.T) {
	cases := []route.RJ{
		job(),
		{Start: rect(1, 1, 4, 4), Goal: rect(9, 1, 12, 4), Hazard: rect(1, 1, 20, 6)},
		{Start: rect(2, 2, 5, 4), Goal: rect(10, 6, 13, 8), Hazard: rect(1, 1, 15, 10)},
		{Start: rect(5, 5, 7, 7), Goal: rect(5, 5, 7, 7), Hazard: rect(1, 1, 12, 12)},
	}
	healthy := func(x, y int) float64 { return 1 }
	for i, rj := range cases {
		_, cycles, err := ShortestPath(rj, smg.DefaultModelOptions())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		res, err := synth.Synthesize(rj, healthy, synth.DefaultOptions())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if float64(cycles) != res.Value {
			t.Errorf("case %d: baseline %d cycles vs synthesis %v", i, cycles, res.Value)
		}
	}
}

func TestPolicyWalksToGoal(t *testing.T) {
	rj := job()
	policy, cycles, err := ShortestPath(rj, smg.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := rj.Start
	for step := 0; step < cycles; step++ {
		a, ok := policy.Lookup(d)
		if !ok {
			t.Fatalf("policy undefined at %v", d)
		}
		d = a.Apply(d)
		if !rj.Hazard.ContainsRect(d) {
			t.Fatalf("walk left hazard bounds at %v", d)
		}
	}
	if !smg.GoalLabel(d, rj.Goal) {
		t.Errorf("walk ended at %v, not in goal %v", d, rj.Goal)
	}
}

func TestAlreadyAtGoal(t *testing.T) {
	rj := route.RJ{Start: rect(4, 4, 6, 6), Goal: rect(3, 3, 7, 7), Hazard: rect(1, 1, 10, 10)}
	_, cycles, err := ShortestPath(rj, smg.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 0 {
		t.Errorf("cycles = %d, want 0", cycles)
	}
}

func TestUnreachableGoal(t *testing.T) {
	// Goal region too small for the droplet shape: a 3×3 droplet cannot
	// fit a 2×2 goal.
	rj := route.RJ{Start: rect(1, 1, 3, 3), Goal: rect(8, 8, 9, 9), Hazard: rect(1, 1, 10, 10)}
	if _, _, err := ShortestPath(rj, smg.DefaultModelOptions()); err == nil {
		t.Error("impossible goal accepted")
	}
}

func TestErrorCases(t *testing.T) {
	rj := job()
	rj.Start = geom.ZeroRect
	if _, _, err := ShortestPath(rj, smg.DefaultModelOptions()); err == nil {
		t.Error("off-chip start accepted")
	}
	rj = job()
	rj.Goal = rect(20, 20, 22, 22)
	if _, _, err := ShortestPath(rj, smg.DefaultModelOptions()); err == nil {
		t.Error("goal outside hazard accepted")
	}
}

// TestNoDoubleNoOrdinal: restricting the alphabet lengthens the route:
// Manhattan distance 14 without ordinals, 7 with.
func TestNoDoubleNoOrdinal(t *testing.T) {
	opt := smg.DefaultModelOptions()
	opt.AllowOrdinal = false
	opt.AllowDouble = false
	_, cycles, err := ShortestPath(job(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 14 {
		t.Errorf("cardinal-only cycles = %d, want 14", cycles)
	}
}

// TestMorphShortcut: with morphing allowed the baseline can reshape to fit a
// goal of a different shape.
func TestMorphShortcut(t *testing.T) {
	rj := route.RJ{
		Start:  rect(1, 1, 4, 4),  // 4×4
		Goal:   rect(8, 1, 12, 3), // exactly fits a 5×3
		Hazard: rect(1, 1, 14, 6),
	}
	opt := smg.DefaultModelOptions()
	if _, _, err := ShortestPath(rj, opt); err == nil {
		t.Error("4×4 droplet cannot satisfy a 5×3 goal without morphing")
	}
	opt.AllowMorph = true
	_, cycles, err := ShortestPath(rj, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cycles < 1 {
		t.Errorf("morph route cycles = %d", cycles)
	}
}

// TestBaselineIgnoresDegradation is the defining property: the baseline
// produces the same strategy regardless of microelectrode health, which is
// why it fails on degraded chips (Sec. VII).
func TestBaselineIgnoresDegradation(t *testing.T) {
	// ShortestPath takes no health input at all; this test documents that
	// the API cannot observe degradation.
	p1, c1, err := ShortestPath(job(), smg.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	p2, c2, err := ShortestPath(job(), smg.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	if diff := p2.Diff(p1); c1 != c2 || diff != "" {
		t.Errorf("baseline must be deterministic: cycles %d vs %d; %s", c1, c2, diff)
	}
}
