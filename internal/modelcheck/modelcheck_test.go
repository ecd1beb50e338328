package modelcheck_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/modelcheck"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/spec"
	"meda/internal/synth"
)

// chain builds the well-formed 3-state model used as the baseline: s0 has a
// coin-flip choice (action 7) into s1/s2 plus a self-loop (action 3), and
// s1, s2 absorb.
func chain() *mdp.MDP {
	var b mdp.Builder
	const s0, s1, s2 = 0, 1, 2
	b.AddStates(3)
	b.BeginChoice(s0, 7, 1)
	b.Transition(s1, 0.5)
	b.Transition(s2, 0.5)
	b.BeginChoice(s0, 3, 1)
	b.Transition(s0, 1)
	b.BeginChoice(s1, -1, 0)
	b.Transition(s1, 1)
	b.BeginChoice(s2, -1, 0)
	b.Transition(s2, 1)
	return b.Build()
}

func countCheck(vs []modelcheck.Violation, check string) int {
	n := 0
	for _, v := range vs {
		if v.Check == check {
			n++
		}
	}
	return n
}

func TestCheckMDPClean(t *testing.T) {
	if vs := modelcheck.CheckMDP(chain()); len(vs) != 0 {
		t.Fatalf("clean model reported %d violations: %v", len(vs), vs)
	}
}

func TestCheckMDPNonStochasticRow(t *testing.T) {
	var b mdp.Builder
	const s0, s1 = 0, 1
	b.AddStates(2)
	b.BeginChoice(s0, 5, 1) // sums to 0.9
	b.Transition(s1, 0.5)
	b.Transition(s0, 0.4)
	b.BeginChoice(s1, -1, 0)
	b.Transition(s1, 1)
	vs := modelcheck.CheckMDP(b.Build())
	if len(vs) != 1 || vs[0].Check != "row-stochastic" {
		t.Fatalf("want one row-stochastic violation, got %v", vs)
	}
	// The violation must carry the state and action detail (satellite
	// requirement: diagnostics locate the offending choice).
	if vs[0].State != s0 || vs[0].Choice != 0 || vs[0].Action != 5 {
		t.Fatalf("violation lost its location: %+v", vs[0])
	}
	if !strings.Contains(vs[0].String(), "state 0 choice 0 (action 5)") {
		t.Fatalf("String() lacks location: %q", vs[0].String())
	}
	if !strings.Contains(vs[0].Detail, "0.9") {
		t.Fatalf("detail should report the defective sum: %q", vs[0].Detail)
	}
}

func TestCheckMDPNegativeAndExcessProbability(t *testing.T) {
	var b mdp.Builder
	s0 := b.AddStates(1)
	b.BeginChoice(s0, 2, 1)
	b.Transition(s0, 1.25)
	b.Transition(s0, -0.25)
	vs := modelcheck.CheckMDP(b.Build())
	// Two out-of-range probabilities; the sum itself is exactly 1.
	if got := countCheck(vs, "row-stochastic"); got != 2 {
		t.Fatalf("want 2 row-stochastic violations, got %v", vs)
	}
}

func TestCheckMDPEmptyChoiceAndNegativeReward(t *testing.T) {
	var b mdp.Builder
	s0 := b.AddStates(1)
	b.BeginChoice(s0, 1, -2)
	b.Transition(s0, 1)
	b.BeginChoice(s0, 2, 0)
	vs := modelcheck.CheckMDP(b.Build())
	if got := countCheck(vs, "row-stochastic"); got != 2 {
		t.Fatalf("want negative-reward and empty-choice violations, got %v", vs)
	}
}

func TestCheckMDPDanglingTarget(t *testing.T) {
	var b mdp.Builder
	s0 := b.AddStates(1)
	b.BeginChoice(s0, 9, 1)
	b.Transition(17, 1) // state 17 does not exist
	vs := modelcheck.CheckMDP(b.Build())
	if got := countCheck(vs, "dangling-target"); got != 1 {
		t.Fatalf("want one dangling-target violation, got %v", vs)
	}
	for _, v := range vs {
		if v.Check == "dangling-target" {
			if v.State != s0 || v.Action != 9 || !strings.Contains(v.Detail, "17") {
				t.Fatalf("dangling-target violation lost its location: %+v", v)
			}
		}
	}
}

func TestCheckIndexReverseIndexDedup(t *testing.T) {
	// A choice with two positive edges into the same target must appear
	// once (deduplicated) in the reverse index; zero-probability edges must
	// not appear at all. CheckIndex verifies both directions of the index.
	var b mdp.Builder
	const s0, s1 = 0, 1
	b.AddStates(2)
	b.BeginChoice(s0, 4, 1)
	b.Transition(s1, 0.5)
	b.Transition(s1, 0.5)
	b.BeginChoice(s1, 5, 1)
	b.Transition(s0, 0)
	b.Transition(s1, 1)
	g := b.Build().CSR()
	if vs := modelcheck.CheckIndex(g); len(vs) != 0 {
		t.Fatalf("dedup/zero-edge reverse index reported violations: %v", vs)
	}
	if got := g.RevOff[int(s1)+1] - g.RevOff[s1]; got != 2 {
		t.Fatalf("want 2 deduped reverse edges into s1, got %d", got)
	}
	if got := g.RevOff[int(s0)+1] - g.RevOff[s0]; got != 0 {
		t.Fatalf("zero-probability edge leaked into the reverse index: %d edges into s0", got)
	}
}

// gatherModel builds a model whose s0 has two deterministic choices of
// reward 1 (gathered), a stochastic one, a deterministic one of reward 2
// and a pure self-loop (not gathered); s1 reaches s0 and s2, and s2 has a
// −0 reward, so it gathers nothing.
func gatherModel() *mdp.MDP {
	var b mdp.Builder
	const s0, s1, s2 = 0, 1, 2
	b.AddStates(3)
	b.BeginChoice(s0, 1, 1)
	b.Transition(s1, 1)
	b.BeginChoice(s0, 2, 1)
	b.Transition(s1, 0.5)
	b.Transition(s0, 0.5)
	b.BeginChoice(s0, 3, 2)
	b.Transition(s2, 1)
	b.BeginChoice(s0, 4, 1)
	b.Transition(s2, 1)
	b.BeginChoice(s0, 5, 1)
	b.Transition(s0, 1)
	b.BeginChoice(s1, 6, 1)
	b.Transition(s0, 0.25)
	b.Transition(s2, 0.75)
	b.BeginChoice(s1, 7, 1)
	b.Transition(s2, 1)
	b.BeginChoice(s2, 8, math.Copysign(0, -1))
	b.Transition(s0, 1)
	return b.Build()
}

// cloneView copies the index slices of a view, so a test can corrupt them
// without touching the model.
func cloneView(g mdp.CSRView) mdp.CSRView {
	g.ChoiceState = append([]int32(nil), g.ChoiceState...)
	g.RevChoice = append([]int32(nil), g.RevChoice...)
	g.Preds = append([]int32(nil), g.Preds...)
	g.DetOff = append([]int32(nil), g.DetOff...)
	g.DetReward = append([]float64(nil), g.DetReward...)
	g.Part = append([]int32(nil), g.Part...)
	return g
}

// TestCheckIndexSolverIndex: the index the solvers build passes, on the
// baseline chain and on gatherModel, where it is the expected one — s0
// gathers its two reward-1 deterministic choices, s1 its one deterministic
// choice, the −0 state s2 nothing — and corrupting the predecessor lists
// or the partition is reported under the matching check.
func TestCheckIndexSolverIndex(t *testing.T) {
	if vs := modelcheck.CheckIndex(chain().CSR()); len(vs) != 0 {
		t.Fatalf("solver index of the chain reported violations: %v", vs)
	}
	g := gatherModel().CSR()
	if vs := modelcheck.CheckIndex(g); len(vs) != 0 {
		t.Fatalf("solver index reported violations: %v", vs)
	}
	for s, want := range [][]int32{{1, 2, 4, 2, 1}, {5, 2}, {7}} {
		lo, hi := g.StateOff[s], g.StateOff[s+1]
		if got := g.Part[lo:hi]; !slices.Equal(got, want) {
			t.Errorf("state %d: partition %v, want %v", s, got, want)
		}
	}
	if got := g.DetOff[:3]; !slices.Equal(got, []int32{3, 6, 8}) {
		t.Errorf("split points %v, want [3 6 8]", got)
	}
	for _, c := range []struct {
		check   string
		corrupt func(g *mdp.CSRView)
	}{
		{"predecessor-lists", func(g *mdp.CSRView) { g.Preds[0] = 0 }},
		{"choice-partition", func(g *mdp.CSRView) { g.Part[4] = 2 }},                 // wrong successor
		{"choice-partition", func(g *mdp.CSRView) { g.DetReward[0] = 2 }},            // wrong reward
		{"choice-partition", func(g *mdp.CSRView) { g.DetOff[0]-- }},                 // gathers the self-loop
		{"choice-partition", func(g *mdp.CSRView) { g.DetOff[2], g.Part[7] = 7, 0 }}, // gathers beside a −0 reward
		{"choice-partition", func(g *mdp.CSRView) { g.Part[0], g.Part[1] = 2, 1 }},   // others out of order
		{"reverse-index", func(g *mdp.CSRView) { g.ChoiceState[1] = 2 }},
	} {
		bad := cloneView(g)
		c.corrupt(&bad)
		if vs := modelcheck.CheckIndex(bad); countCheck(vs, c.check) == 0 {
			t.Errorf("corrupted %s not reported: %v", c.check, vs)
		}
	}
}

func TestCheckStrategyTotal(t *testing.T) {
	m := chain()
	target := []bool{false, true, false}
	st := mdp.Strategy{0, -1, -1} // flip at s0; s1 is the target, s2 unreachable? no: flip reaches s2
	// s2 is reachable, absorbing and not a target: its only choice must be
	// selected for the walk to be well-defined.
	vs := modelcheck.CheckStrategy(m, st, 0, target, nil)
	if got := countCheck(vs, "strategy-totality"); got != 1 {
		t.Fatalf("want one strategy-totality violation at s2, got %v", vs)
	}
	if vs[0].State != 2 {
		t.Fatalf("violation at wrong state: %+v", vs[0])
	}
	// Selecting s2's choice repairs it.
	st[2] = 0
	if vs := modelcheck.CheckStrategy(m, st, 0, target, nil); len(vs) != 0 {
		t.Fatalf("total strategy reported violations: %v", vs)
	}
}

func TestCheckStrategyPartialOnReachable(t *testing.T) {
	m := chain()
	target := []bool{false, true, false}
	avoid := []bool{false, false, true}
	// s2 is avoided, so no selection is required there; s0 itself has no
	// selection — a reachable hole.
	vs := modelcheck.CheckStrategy(m, mdp.Strategy{-1, -1, -1}, 0, target, avoid)
	if len(vs) != 1 || vs[0].State != 0 {
		t.Fatalf("want one violation at the initial state, got %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "no selected choice") {
		t.Fatalf("detail should explain the hole: %q", vs[0].Detail)
	}
}

func TestCheckStrategyUnreachableHoleOK(t *testing.T) {
	m := chain()
	target := []bool{false, true, true}
	// Self-loop at s0 never reaches s1/s2; holes there are fine, but the
	// strategy must still be sized to the model.
	if vs := modelcheck.CheckStrategy(m, mdp.Strategy{1, -1, -1}, 0, target, nil); len(vs) != 0 {
		t.Fatalf("unreachable holes should be tolerated, got %v", vs)
	}
	if vs := modelcheck.CheckStrategy(m, mdp.Strategy{1}, 0, target, nil); len(vs) != 1 {
		t.Fatalf("mis-sized strategy must be reported, got %v", vs)
	}
}

func TestCheckHazardClosure(t *testing.T) {
	m := chain()
	goal := []bool{false, true, false}
	hazard := []bool{true, false, false} // s0 can flip into non-hazard s1, s2 — leaks
	vs := modelcheck.CheckHazardClosure(m, goal, hazard)
	if got := countCheck(vs, "hazard-closure"); got != 2 {
		t.Fatalf("want 2 hazard-closure leaks (s1 and s2 via the flip), got %v", vs)
	}
	for _, v := range vs {
		if v.State != 0 || v.Action != 7 {
			t.Fatalf("leak violation lost its location: %+v", v)
		}
	}
	// Absorbing hazard set is clean.
	hazard = []bool{false, false, true}
	if vs := modelcheck.CheckHazardClosure(m, goal, hazard); len(vs) != 0 {
		t.Fatalf("absorbing hazard set reported violations: %v", vs)
	}
	// Overlapping labels are contradictory.
	vs = modelcheck.CheckHazardClosure(m, goal, []bool{false, true, false})
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "both goal and hazard") {
		t.Fatalf("want one overlap violation, got %v", vs)
	}
}

// healthyField is a pristine chip: full relative force everywhere.
func healthyField(x, y int) float64 { return 1 }

func TestCheckReducedOnInducedModel(t *testing.T) {
	bounds := geom.Rect{XA: 1, YA: 1, XB: 12, YB: 8}
	start := geom.Rect{XA: 1, YA: 1, XB: 4, YB: 4}
	goal := geom.Rect{XA: 8, YA: 4, XB: 12, YB: 8}
	model, err := smg.Induce(bounds, start, goal, healthyField, smg.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.M.MinExpectedReward(model.Goal, model.Hazard, mdp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := modelcheck.CheckReduced(model, res.Strategy, bounds); len(vs) != 0 {
		t.Fatalf("induced model failed verification: %v", vs)
	}
	if vs := modelcheck.CheckValues(res.Values, false); len(vs) != 0 {
		t.Fatalf("reward values failed verification: %v", vs)
	}
}

func TestCheckReducedThroughSynthesize(t *testing.T) {
	// The full Alg. 2 path, Pmax flavor, over a worn field and a dispense
	// job entering from the chip edge: the model Synthesize solves, induced
	// again, passes every check under its Pmax strategy.
	worn := func(x, y int) float64 { return 0.81 }
	job := route.RJ{
		MO: 1, Index: 0,
		Goal:     geom.Rect{XA: 10, YA: 6, XB: 13, YB: 9},
		Hazard:   geom.Rect{XA: 1, YA: 1, XB: 20, YB: 14},
		Dispense: true,
	}
	rj := synth.NormalizeDispense(job, 60, 30)
	opt := synth.DefaultOptions()
	opt.Query = spec.RoutingQuery(spec.PMax)
	res, err := synth.Synthesize(rj, worn, opt)
	if err != nil {
		t.Fatal(err)
	}
	model, err := smg.Induce(rj.Hazard, rj.Start, rj.Goal, worn, opt.Model)
	if err != nil {
		t.Fatal(err)
	}
	p, err := model.M.MaxReachProb(model.Goal, model.Hazard, mdp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Values[model.Init] != res.Value {
		t.Fatalf("induced model reaches with %v, synthesis reported %v", p.Values[model.Init], res.Value)
	}
	if vs := modelcheck.CheckReduced(model, p.Strategy, rj.Hazard); len(vs) != 0 {
		t.Fatalf("synthesized model failed verification: %v", vs)
	}
}

func TestCheckReducedCatchesHazardMislabel(t *testing.T) {
	bounds := geom.Rect{XA: 1, YA: 1, XB: 9, YB: 6}
	start := geom.Rect{XA: 1, YA: 1, XB: 3, YB: 3}
	goal := geom.Rect{XA: 6, YA: 3, XB: 9, YB: 6}
	model, err := smg.Induce(bounds, start, goal, healthyField, smg.DefaultModelOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the labels the way a buggy reduction would: drop the hazard
	// mark from the sink.
	model.Hazard[model.HazardSink] = false
	vs := modelcheck.CheckReduced(model, nil, bounds)
	if got := countCheck(vs, "hazard-closure"); got == 0 {
		t.Fatalf("mislabeled hazard sink not caught: %v", vs)
	}
}

func TestCheckValues(t *testing.T) {
	vs := modelcheck.CheckValues([]float64{0, 0.5, 1.2, math.NaN()}, true)
	if len(vs) != 2 {
		t.Fatalf("want violations for 1.2 and NaN, got %v", vs)
	}
	// Reward semantics: only NaN is illegal.
	if vs := modelcheck.CheckValues([]float64{0, 17, 1.2}, false); len(vs) != 0 {
		t.Fatalf("finite rewards should pass, got %v", vs)
	}
}
