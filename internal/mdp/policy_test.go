package mdp

import (
	"math"
	"testing"

	"meda/internal/randx"
)

// TestPolicyEvaluationMatchesOptimum: evaluating the optimal strategy
// reproduces the optimal values, for both objectives.
func TestPolicyEvaluationMatchesOptimum(t *testing.T) {
	src := randx.New(61)
	for trial := 0; trial < 10; trial++ {
		m, target := randomMDP(src.SplitN("t", trial), 35, 3)
		opt, err := m.MinExpectedReward(target, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		vals, err := m.EvaluatePolicyReward(opt.Strategy, target, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for s := range vals {
			if math.IsInf(opt.Values[s], 1) != math.IsInf(vals[s], 1) {
				t.Fatalf("trial %d state %d: finiteness mismatch", trial, s)
			}
			if !math.IsInf(vals[s], 1) && math.Abs(vals[s]-opt.Values[s]) > 1e-5 {
				t.Fatalf("trial %d state %d: %v vs optimal %v", trial, s, vals[s], opt.Values[s])
			}
		}
		popt, err := m.MaxReachProb(target, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pvals, err := m.EvaluatePolicyReach(popt.Strategy, target, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for s := range pvals {
			if math.Abs(pvals[s]-popt.Values[s]) > 1e-5 {
				t.Fatalf("trial %d state %d: reach %v vs optimal %v", trial, s, pvals[s], popt.Values[s])
			}
		}
	}
}

// TestSuboptimalPolicyIsWorse: forcing the detour in the two-choice model
// evaluates to its true (worse) cost.
func TestSuboptimalPolicyIsWorse(t *testing.T) {
	const s0, a, b, goal = 0, 1, 2, 3
	m := pack([][]Choice{
		s0: {
			{Reward: 1, Transitions: []Transition{{To: a, P: 1}}},                                   // detour: 3 steps
			{Action: 1, Reward: 1, Transitions: []Transition{{To: goal, P: 0.5}, {To: s0, P: 0.5}}}, // expected 2
		},
		a:    {{Reward: 1, Transitions: []Transition{{To: b, P: 1}}}},
		b:    {{Reward: 1, Transitions: []Transition{{To: goal, P: 1}}}},
		goal: nil,
	})
	target := []bool{false, false, false, true}

	detour := Strategy{0, 0, 0, -1}
	vals, err := m.EvaluatePolicyReward(detour, target, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[s0]-3) > 1e-9 {
		t.Errorf("detour cost = %v, want 3", vals[s0])
	}
	risky := Strategy{1, 0, 0, -1}
	vals, err = m.EvaluatePolicyReward(risky, target, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[s0]-2) > 1e-6 {
		t.Errorf("risky cost = %v, want 2", vals[s0])
	}
}

// TestPolicyIntoTrapIsInfinite: a policy that walks into an absorbing
// non-target state evaluates to +Inf (reward) and its true probability
// (reach).
func TestPolicyIntoTrapIsInfinite(t *testing.T) {
	const s0, trap, goal = 0, 1, 2
	m := pack([][]Choice{
		s0:   {{Reward: 1, Transitions: []Transition{{To: trap, P: 0.5}, {To: goal, P: 0.5}}}},
		trap: {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},
		goal: nil,
	})
	target := []bool{false, false, true}
	st := Strategy{0, 0, -1}
	vals, err := m.EvaluatePolicyReward(st, target, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(vals[s0], 1) {
		t.Errorf("reward through a trap = %v, want +Inf", vals[s0])
	}
	pvals, err := m.EvaluatePolicyReach(st, target, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pvals[s0]-0.5) > 1e-9 {
		t.Errorf("reach through a trap = %v, want 0.5", pvals[s0])
	}
}

func TestPolicyEvaluationVectorMismatch(t *testing.T) {
	m := chainMDP(3)
	if _, err := m.EvaluatePolicyReward(Strategy{0}, labelLast(3), SolveOptions{}); err == nil {
		t.Error("short strategy accepted")
	}
	if _, err := m.EvaluatePolicyReach(Strategy{0, 0, -1}, []bool{true}, nil, SolveOptions{}); err == nil {
		t.Error("short target accepted")
	}
}
