package synth

import (
	"math"
	"testing"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/spec"
)

func rect(xa, ya, xb, yb int) geom.Rect { return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb} }

func healthy(x, y int) float64 { return 1 }

func simpleRJ() route.RJ {
	return route.RJ{
		MO: 1, Index: 0,
		Start:  rect(1, 1, 3, 3),
		Goal:   rect(8, 8, 10, 10),
		Hazard: rect(1, 1, 10, 10),
	}
}

func TestSynthesizeRMin(t *testing.T) {
	res, err := Synthesize(simpleRJ(), healthy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists() {
		t.Fatal("strategy must exist on a healthy field")
	}
	if math.Abs(res.Value-7) > 1e-6 {
		t.Errorf("expected cycles = %v, want 7", res.Value)
	}
	if res.Stats.States != 67 {
		t.Errorf("states = %d, want 67 (Table V row 1)", res.Stats.States)
	}
	if res.Stats.Construction <= 0 || res.Stats.Synthesis <= 0 {
		t.Error("timings must be positive")
	}
	if res.Stats.Total() != res.Stats.Construction+res.Stats.Synthesis {
		t.Error("total time mismatch")
	}
	if a, ok := res.Policy.Lookup(rect(1, 1, 3, 3)); !ok || a != action.MoveNE {
		t.Errorf("policy at start = %v/%v, want aNE", a, ok)
	}
}

func TestSynthesizePMax(t *testing.T) {
	opt := DefaultOptions()
	opt.Query = spec.RoutingQuery(spec.PMax)
	res, err := Synthesize(simpleRJ(), healthy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists() {
		t.Fatal("strategy must exist")
	}
	if math.Abs(res.Value-1) > 1e-6 {
		t.Errorf("Pmax = %v, want 1 on a healthy field", res.Value)
	}
}

func TestSynthesizeNoStrategy(t *testing.T) {
	// A full-height dead wall: PRISMG-style (∅, ∞).
	field := func(x, y int) float64 {
		if x == 6 {
			return 0
		}
		return 1
	}
	rj := route.RJ{Start: rect(1, 4, 3, 6), Goal: rect(8, 4, 10, 6), Hazard: rect(1, 1, 10, 10)}
	res, err := Synthesize(rj, field, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists() {
		t.Error("no strategy should exist through a dead wall")
	}
	if !math.IsInf(res.Value, 1) {
		t.Errorf("value = %v, want +Inf", res.Value)
	}
	if res.Policy.Len() != 0 {
		t.Error("policy must be empty when no strategy exists")
	}
	// The Pmax query agrees: probability 0.
	opt := DefaultOptions()
	opt.Query = spec.RoutingQuery(spec.PMax)
	res, err = Synthesize(rj, field, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists() || res.Value != 0 {
		t.Errorf("Pmax result = %v/%v, want 0/absent", res.Value, res.Exists())
	}
}

func TestSynthesizeDegradedDetour(t *testing.T) {
	// A partially degraded column makes the straight path slower; the
	// expected cycles must grow accordingly but stay finite.
	field := func(x, y int) float64 {
		if x == 6 {
			return 0.25
		}
		return 1
	}
	res, err := Synthesize(simpleRJ(), field, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists() {
		t.Fatal("strategy must exist")
	}
	if res.Value <= 7 {
		t.Errorf("degraded field should cost more than 7 cycles, got %v", res.Value)
	}
	if res.Value > 30 {
		t.Errorf("cost unreasonably high: %v", res.Value)
	}
}

func TestSynthesizeRejectsOffChipStart(t *testing.T) {
	rj := route.RJ{Dispense: true, Goal: rect(2, 2, 4, 4), Hazard: rect(1, 1, 7, 7)}
	if _, err := Synthesize(rj, healthy, DefaultOptions()); err == nil {
		t.Error("off-chip start accepted")
	}
}

func TestNormalizeDispense(t *testing.T) {
	rj := route.RJ{
		MO: 0, Index: 0, Dispense: true,
		Goal:   rect(16, 1, 19, 4),
		Hazard: rect(13, 1, 22, 7),
	}
	n := NormalizeDispense(rj, 60, 30)
	if n.Start.IsZero() {
		t.Fatal("normalized dispense must have an on-chip start")
	}
	if n.Start != rect(16, 1, 19, 4) {
		t.Errorf("entry = %v, want goal at the edge", n.Start)
	}
	if !n.Hazard.ContainsRect(n.Start) || !n.Hazard.ContainsRect(n.Goal) {
		t.Error("hazard must cover entry and goal")
	}
	// Non-dispense jobs pass through unchanged.
	plain := simpleRJ()
	if NormalizeDispense(plain, 60, 30) != plain {
		t.Error("non-dispense job modified")
	}
	// Synthesizing the normalized job succeeds (trivially at goal).
	res, err := Synthesize(n, healthy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Errorf("edge dispense expected cycles = %v, want 0", res.Value)
	}
}

// TestTranslationInvariance: synthesizing the same job shifted by (dx, dy)
// on a uniform field yields the shifted policy — the property that makes the
// offline strategy library sound.
func TestTranslationInvariance(t *testing.T) {
	a, err := Synthesize(simpleRJ(), healthy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shifted := simpleRJ()
	shifted.Start = shifted.Start.Translate(7, 3)
	shifted.Goal = shifted.Goal.Translate(7, 3)
	shifted.Hazard = shifted.Hazard.Translate(7, 3)
	b, err := Synthesize(shifted, healthy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Value-b.Value) > 1e-9 {
		t.Fatalf("values differ: %v vs %v", a.Value, b.Value)
	}
	var same [action.NumActions]action.Action
	for i := range same {
		same[i] = action.Action(i)
	}
	moved := a.Policy.Remap(func(d geom.Rect) geom.Rect { return d.Translate(7, 3) }, &same)
	// With Gauss-Seidel and identical iteration order on a translated
	// model, ties between equal-value actions break the same way.
	if diff := moved.Diff(b.Policy); diff != "" {
		t.Fatal(diff)
	}
}

func TestSynthesizeUnknownLabel(t *testing.T) {
	opt := DefaultOptions()
	opt.Query = spec.Query{Kind: spec.RMin, Reach: "nonsense"}
	if _, err := Synthesize(simpleRJ(), healthy, opt); err == nil {
		t.Error("unknown label accepted")
	}
	opt.Query = spec.Query{Kind: spec.RMin, Reach: "goal", Avoid: "nonsense"}
	if _, err := Synthesize(simpleRJ(), healthy, opt); err == nil {
		t.Error("unknown avoid label accepted")
	}
}

// TestTableVModelSizes reproduces the #States column of Table V through the
// full synthesis path and checks that the model sizes scale the right way:
// for a fixed area, smaller droplets induce larger models. Like the paper,
// it uses a worst-case health matrix with no zero elements — and, so that
// failure branches exist, with success probabilities strictly below 1.
func TestTableVModelSizes(t *testing.T) {
	worn := func(x, y int) float64 { return 0.81 }
	for _, area := range []int{10, 20} {
		prev := 1 << 30
		for _, d := range []int{3, 4, 5, 6} {
			rj := route.RJ{
				Start:  rect(1, 1, d, d),
				Goal:   rect(area-d+1, area-d+1, area, area),
				Hazard: rect(1, 1, area, area),
			}
			res, err := Synthesize(rj, worn, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := (area-d+1)*(area-d+1) + 3
			if res.Stats.States != want {
				t.Errorf("area %d droplet %d: states = %d, want %d", area, d, res.Stats.States, want)
			}
			if res.Stats.States >= prev {
				t.Errorf("area %d: states must shrink as droplet grows", area)
			}
			prev = res.Stats.States
			if res.Stats.Choices <= res.Stats.States {
				t.Errorf("choices (%d) should exceed states (%d)", res.Stats.Choices, res.Stats.States)
			}
			if res.Stats.Transitions <= res.Stats.Choices {
				t.Errorf("transitions (%d) should exceed choices (%d)", res.Stats.Transitions, res.Stats.Choices)
			}
		}
	}
}

// TestMorphOptionPropagates: enabling morphing grows the model.
func TestMorphOptionPropagates(t *testing.T) {
	base, err := Synthesize(simpleRJ(), healthy, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Model.AllowMorph = true
	morphed, err := Synthesize(simpleRJ(), healthy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if morphed.Stats.States <= base.Stats.States {
		t.Errorf("morph model (%d states) should exceed base (%d)", morphed.Stats.States, base.Stats.States)
	}
}

var _ = smg.DefaultModelOptions // keep import for readability of options

// TestPmaxValuesCertified cross-checks the value-iteration Pmax result with
// interval iteration's certified bounds on a degraded routing model — the
// in-repo substitute for validating against PRISM-games.
func TestPmaxValuesCertified(t *testing.T) {
	worn := func(x, y int) float64 { return 0.49 }
	opt := DefaultOptions()
	opt.Query = spec.RoutingQuery(spec.PMax)
	opt.RetainModel = true
	res, err := Synthesize(simpleRJ(), worn, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := res.Model.M.MaxReachProb(res.Model.Goal, res.Model.Hazard, mdp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := res.Model.M.CertifyMaxReachProb(p.Values, res.Model.Goal, res.Model.Hazard,
		mdp.SolveOptions{Eps: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-6 {
		t.Errorf("VI values violate certified bounds by %v", worst)
	}
}
