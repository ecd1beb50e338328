package mdp

import (
	"math"
	"testing"

	"meda/internal/randx"
)

func TestIntervalBoundsBracketVI(t *testing.T) {
	src := randx.New(55)
	for trial := 0; trial < 10; trial++ {
		m, target := randomMDP(src.SplitN("t", trial), 40, 3)
		vi, err := m.MaxReachProb(target, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.IntervalMaxReachProb(target, nil, SolveOptions{Eps: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if res.Width() > 1e-6 {
			t.Fatalf("trial %d: width = %v", trial, res.Width())
		}
		for s := range vi.Values {
			if vi.Values[s] < res.Lower[s]-1e-6 || vi.Values[s] > res.Upper[s]+1e-6 {
				t.Fatalf("trial %d state %d: VI %v outside [%v, %v]",
					trial, s, vi.Values[s], res.Lower[s], res.Upper[s])
			}
		}
	}
}

func TestIntervalCertify(t *testing.T) {
	src := randx.New(56)
	m, target := randomMDP(src, 30, 2)
	vi, err := m.MaxReachProb(target, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := m.CertifyMaxReachProb(vi.Values, target, nil, SolveOptions{Eps: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1e-6 {
		t.Errorf("certification violation = %v", worst)
	}
}

func TestIntervalUnreachablePinnedZero(t *testing.T) {
	const s0, trap, goal = 0, 1, 2
	m := pack([][]Choice{
		s0:   {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},
		trap: {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},
		goal: {{Transitions: []Transition{{To: goal, P: 1}}}},
	})
	res, err := m.IntervalMaxReachProb([]bool{false, false, true}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Upper[s0] != 0 || res.Upper[trap] != 0 {
		t.Errorf("unreachable states must certify 0: %v", res.Upper)
	}
	if res.Lower[goal] != 1 {
		t.Error("goal must certify 1")
	}
}

// TestIntervalEpsilonLoop: a state retrying with p=0.4 (self-loop failure
// branch) certifies Pmax = 1 despite the loop — the pure-self-loop exclusion
// is not needed here, the leak does the work.
func TestIntervalEpsilonLoop(t *testing.T) {
	const s0, goal = 0, 1
	m := pack([][]Choice{
		s0:   {{Reward: 1, Transitions: []Transition{{To: goal, P: 0.4}, {To: s0, P: 0.6}}}},
		goal: {{Transitions: []Transition{{To: goal, P: 1}}}},
	})
	res, err := m.IntervalMaxReachProb([]bool{false, true}, nil, SolveOptions{Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Lower[s0]-1) > 1e-6 || math.Abs(res.Upper[s0]-1) > 1e-6 {
		t.Errorf("bounds = [%v, %v], want 1", res.Lower[s0], res.Upper[s0])
	}
}

// TestIntervalPureSelfLoopExcluded: an extra do-nothing choice must not keep
// the upper bound at 1.
func TestIntervalPureSelfLoopExcluded(t *testing.T) {
	const s0, goal = 0, 1
	m := pack([][]Choice{
		s0: {
			{Reward: 1, Transitions: []Transition{{To: s0, P: 1}}}, // wait forever
			{Action: 1, Reward: 1, Transitions: []Transition{{To: goal, P: 0.5}, {To: s0, P: 0.5}}},
		},
		goal: {{Transitions: []Transition{{To: goal, P: 1}}}},
	})
	res, err := m.IntervalMaxReachProb([]bool{false, true}, nil, SolveOptions{Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Upper[s0]-1) > 1e-6 {
		t.Errorf("upper = %v, want 1 (retry choice wins)", res.Upper[s0])
	}
	if res.Width() > 1e-6 {
		t.Errorf("width = %v, did not converge", res.Width())
	}
}

// TestIntervalDeterministicCycleLimitation documents the known limitation:
// a probability-1 two-cycle with an alternative route keeps the upper bound
// from closing, and the solver reports non-convergence rather than lying.
func TestIntervalDeterministicCycleLimitation(t *testing.T) {
	const a, b, trap, goal = 0, 1, 2, 3
	// The optimal play is the risky exit (Pmax = 0.5); cycling a↔b yields
	// nothing, but it keeps the naive upper bound at 1.
	m := pack([][]Choice{
		a: {
			{Reward: 1, Transitions: []Transition{{To: b, P: 1}}},
			{Action: 1, Reward: 1, Transitions: []Transition{{To: goal, P: 0.5}, {To: trap, P: 0.5}}},
		},
		b:    {{Reward: 1, Transitions: []Transition{{To: a, P: 1}}}},
		trap: {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},
		goal: {{Transitions: []Transition{{To: goal, P: 1}}}},
	})
	_, err := m.IntervalMaxReachProb([]bool{false, false, false, true}, nil,
		SolveOptions{Eps: 1e-9, MaxIter: 5000})
	if err != ErrNoConvergence {
		t.Errorf("expected ErrNoConvergence on a deterministic cycle, got %v", err)
	}
}

func TestIntervalLabelMismatch(t *testing.T) {
	m := chainMDP(3)
	if _, err := m.IntervalMaxReachProb([]bool{true}, nil, SolveOptions{}); err == nil {
		t.Error("short target vector accepted")
	}
}
