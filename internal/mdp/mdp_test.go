package mdp

import (
	"math"
	"slices"
	"testing"

	"meda/internal/randx"
)

// chainMDP builds a deterministic chain 0 → 1 → ... → n−1 with unit rewards.
func chainMDP(n int) *MDP {
	cs := make([][]Choice, n)
	for s := 0; s < n-1; s++ {
		cs[s] = []Choice{{Reward: 1, Transitions: []Transition{{To: StateID(s + 1), P: 1}}}}
	}
	return pack(cs)
}

func labelLast(n int) []bool {
	l := make([]bool, n)
	l[n-1] = true
	return l
}

func TestValidateAcceptsChain(t *testing.T) {
	m := chainMDP(5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 5 || m.NumChoices() != 4 || m.NumTransitions() != 4 {
		t.Errorf("stats = %d/%d/%d", m.NumStates(), m.NumChoices(), m.NumTransitions())
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	for _, c := range []struct {
		name   string
		choice Choice
	}{
		{"empty transition list", Choice{Reward: 1}},
		{"out-of-range target", Choice{Reward: 1, Transitions: []Transition{{To: 7, P: 1}}}},
		{"sub-stochastic distribution", Choice{Reward: 1, Transitions: []Transition{{To: 0, P: 0.5}}}},
		{"negative reward", Choice{Reward: -1, Transitions: []Transition{{To: 0, P: 1}}}},
	} {
		if err := pack([][]Choice{{c.choice}}).Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestMinExpectedRewardChain(t *testing.T) {
	const n = 10
	m := chainMDP(n)
	res, err := m.MinExpectedReward(labelLast(n), nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < n; s++ {
		want := float64(n - 1 - s)
		if math.Abs(res.Values[s]-want) > 1e-6 {
			t.Errorf("J(%d) = %v, want %v", s, res.Values[s], want)
		}
	}
	// Strategy: every non-target state selects its only choice.
	for s := 0; s < n-1; s++ {
		if res.Strategy[s] != 0 {
			t.Errorf("strategy[%d] = %d", s, res.Strategy[s])
		}
	}
	if res.Strategy[n-1] != -1 {
		t.Error("target state must select nothing")
	}
}

// TestGeometricSelfLoop: a state that succeeds with probability p and
// otherwise stays put has expected hitting time 1/p.
func TestGeometricSelfLoop(t *testing.T) {
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		const s0, goal = 0, 1
		m := pack([][]Choice{
			s0:   {{Reward: 1, Transitions: []Transition{{To: goal, P: p}, {To: s0, P: 1 - p}}}},
			goal: nil,
		})
		res, err := m.MinExpectedReward([]bool{false, true}, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Values[s0]-1/p) > 1e-6 {
			t.Errorf("p=%v: J = %v, want %v", p, res.Values[s0], 1/p)
		}
	}
}

// TestMinRewardPicksBetterChoice: a slow sure path (3 steps) vs a fast risky
// action (p=0.5 self-loop, expected 2 steps): the solver must pick risky.
func TestMinRewardPicksBetterChoice(t *testing.T) {
	const s0, a, b, goal = 0, 1, 2, 3
	m := pack([][]Choice{
		s0: {
			// Choice 0: deterministic detour of 3 steps.
			{Action: 100, Reward: 1, Transitions: []Transition{{To: a, P: 1}}},
			// Choice 1: geometric with p = 0.5 → expected 2 steps.
			{Action: 200, Reward: 1, Transitions: []Transition{{To: goal, P: 0.5}, {To: s0, P: 0.5}}},
		},
		a:    {{Reward: 1, Transitions: []Transition{{To: b, P: 1}}}},
		b:    {{Reward: 1, Transitions: []Transition{{To: goal, P: 1}}}},
		goal: nil,
	})
	target := []bool{false, false, false, true}
	res, err := m.MinExpectedReward(target, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[s0]-2) > 1e-6 {
		t.Errorf("J(s0) = %v, want 2", res.Values[s0])
	}
	if act, ok := res.Strategy.Action(m, s0); !ok || act != 200 {
		t.Errorf("strategy picked action %v/%v, want 200", act, ok)
	}
}

func TestMinRewardUnreachableIsInf(t *testing.T) {
	const s0, trap, goal = 0, 1, 2
	m := pack([][]Choice{
		s0:   {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},
		trap: {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},
		goal: {{Reward: 1, Transitions: []Transition{{To: goal, P: 1}}}},
	})
	res, err := m.MinExpectedReward([]bool{false, false, true}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Values[s0], 1) || !math.IsInf(res.Values[trap], 1) {
		t.Errorf("unreachable states must be +Inf, got %v", res.Values)
	}
	if res.Values[goal] != 0 {
		t.Errorf("goal value = %v", res.Values[goal])
	}
}

// TestMinRewardAlmostSureOnly: a state with one choice that reaches the goal
// with p=0.9 but falls into a trap with p=0.1 has Rmin = ∞ (PRISM
// semantics: reward is infinite unless the goal is reached almost surely).
func TestMinRewardAlmostSureOnly(t *testing.T) {
	const s0, trap, goal = 0, 1, 2
	m := pack([][]Choice{
		s0:   {{Reward: 1, Transitions: []Transition{{To: goal, P: 0.9}, {To: trap, P: 0.1}}}},
		trap: {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},
		goal: nil,
	})
	res, err := m.MinExpectedReward([]bool{false, false, true}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Values[s0], 1) {
		t.Errorf("J(s0) = %v, want +Inf", res.Values[s0])
	}
}

func TestProb1E(t *testing.T) {
	const s0, s1, trap, goal = 0, 1, 2, 3
	m := pack([][]Choice{
		s0:   {{Reward: 1, Transitions: []Transition{{To: goal, P: 0.5}, {To: s0, P: 0.5}}}},   // can retry forever → a.s.
		s1:   {{Reward: 1, Transitions: []Transition{{To: goal, P: 0.5}, {To: trap, P: 0.5}}}}, // risky only → not a.s.
		trap: {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},                       // absorbing
		goal: nil,
	})
	target := []bool{false, false, false, true}
	as := slices.Clone(m.g.prob1E(target, nil))
	if !as[s0] {
		t.Error("s0 (retryable) must be almost-sure winning")
	}
	if as[s1] {
		t.Error("s1 (risky only) must not be almost-sure winning")
	}
	if as[trap] {
		t.Error("trap must not be almost-sure winning")
	}
	if !as[goal] {
		t.Error("goal must be almost-sure winning")
	}
}

func TestMaxReachProbBasics(t *testing.T) {
	const s0, s1, trap, goal = 0, 1, 2, 3
	m := pack([][]Choice{
		// s0 has two choices: safe 0.9 to goal / 0.1 trap, or 0.5/0.5 via s1.
		s0: {
			{Action: 1, Reward: 1, Transitions: []Transition{{To: goal, P: 0.9}, {To: trap, P: 0.1}}},
			{Action: 2, Reward: 1, Transitions: []Transition{{To: s1, P: 0.5}, {To: trap, P: 0.5}}},
		},
		s1:   {{Reward: 1, Transitions: []Transition{{To: goal, P: 1}}}},
		trap: {{Reward: 1, Transitions: []Transition{{To: trap, P: 1}}}},
		goal: nil,
	})
	target := []bool{false, false, false, true}
	res, err := m.MaxReachProb(target, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[s0]-0.9) > 1e-9 {
		t.Errorf("Pmax(s0) = %v, want 0.9", res.Values[s0])
	}
	if act, ok := res.Strategy.Action(m, s0); !ok || act != 1 {
		t.Errorf("strategy action = %v/%v, want 1", act, ok)
	}
	if res.Values[trap] != 0 || res.Values[goal] != 1 {
		t.Error("absorbing values wrong")
	}
}

func TestMaxReachProbWithAvoid(t *testing.T) {
	const s0, hz, goal = 0, 1, 2
	m := pack([][]Choice{
		s0: {
			// Direct risky route passes through the hazard with p=0.4.
			{Action: 1, Reward: 1, Transitions: []Transition{{To: goal, P: 0.6}, {To: hz, P: 0.4}}},
			// Slow route: self-loop with small success, never hazard.
			{Action: 2, Reward: 1, Transitions: []Transition{{To: goal, P: 0.2}, {To: s0, P: 0.8}}},
		},
		hz:   {{Reward: 1, Transitions: []Transition{{To: goal, P: 1}}}},
		goal: nil,
	})
	target := []bool{false, false, true}
	avoid := []bool{false, true, false}
	res, err := m.MaxReachProb(target, avoid, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With the hazard forbidden, the slow route wins: Pmax = 1.
	if math.Abs(res.Values[s0]-1) > 1e-6 {
		t.Errorf("Pmax(s0) = %v, want 1", res.Values[s0])
	}
	if act, _ := res.Strategy.Action(m, s0); act != 2 {
		t.Errorf("strategy must avoid the hazard, picked %d", act)
	}
	if res.Values[hz] != 0 {
		t.Error("hazard value must be 0")
	}
}

func TestAvoidOverridesTarget(t *testing.T) {
	const s = 0
	m := pack([][]Choice{{{Reward: 1, Transitions: []Transition{{To: s, P: 1}}}}})
	res, err := m.MaxReachProb([]bool{true}, []bool{true}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[s] != 0 {
		t.Error("state both target and avoid must value 0")
	}
}

func TestJacobiMatchesGaussSeidel(t *testing.T) {
	src := randx.New(99)
	m, target := randomMDP(src, 60, 3)
	gs, err := m.MinExpectedReward(target, nil, SolveOptions{Method: GaussSeidel})
	if err != nil {
		t.Fatal(err)
	}
	jc, err := m.MinExpectedReward(target, nil, SolveOptions{Method: Jacobi})
	if err != nil {
		t.Fatal(err)
	}
	for s := range gs.Values {
		a, b := gs.Values[s], jc.Values[s]
		if math.IsInf(a, 1) != math.IsInf(b, 1) {
			t.Fatalf("finiteness mismatch at %d", s)
		}
		if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-6 {
			t.Fatalf("value mismatch at %d: %v vs %v", s, a, b)
		}
	}
	pg, err := m.MaxReachProb(target, nil, SolveOptions{Method: GaussSeidel})
	if err != nil {
		t.Fatal(err)
	}
	pj, err := m.MaxReachProb(target, nil, SolveOptions{Method: Jacobi})
	if err != nil {
		t.Fatal(err)
	}
	for s := range pg.Values {
		if math.Abs(pg.Values[s]-pj.Values[s]) > 1e-6 {
			t.Fatalf("prob mismatch at %d", s)
		}
	}
}

// randomMDP builds a random strongly-connected-ish MDP over n states with k
// choices per state; the last state is the absorbing target.
func randomMDP(src *randx.Source, n, k int) (*MDP, []bool) {
	cs := make([][]Choice, n)
	for s := 0; s < n-1; s++ {
		for c := 0; c < k; c++ {
			// Two-successor distribution with a bias toward moving
			// forward so the target is reachable.
			t1 := StateID(src.IntN(n))
			t2 := StateID(src.IntN(n))
			p := 0.2 + 0.6*src.Float64()
			cs[s] = append(cs[s], Choice{Action: c, Reward: 1, Transitions: []Transition{{To: t1, P: p}, {To: t2, P: 1 - p}}})
		}
		// Guarantee a path onward.
		cs[s] = append(cs[s], Choice{Action: k, Reward: 1, Transitions: []Transition{{To: StateID(s + 1), P: 1}}})
	}
	cs[n-1] = []Choice{{Reward: 1, Transitions: []Transition{{To: StateID(n - 1), P: 1}}}}
	return pack(cs), labelLast(n)
}

// TestStrategyAchievesValue evaluates the extracted min-reward strategy as a
// Markov chain and checks its expected cost matches the optimal values.
func TestStrategyAchievesValue(t *testing.T) {
	src := randx.New(123)
	for trial := 0; trial < 10; trial++ {
		m, target := randomMDP(src.SplitN("t", trial), 40, 2)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := m.MinExpectedReward(target, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Policy evaluation by iteration.
		n := m.NumStates()
		vals := make([]float64, n)
		for iter := 0; iter < 200000; iter++ {
			delta := 0.0
			for s := 0; s < n; s++ {
				if target[s] || res.Strategy[s] < 0 {
					continue
				}
				c := m.Choices(StateID(s))[res.Strategy[s]]
				v := c.Reward
				for _, tr := range c.Transitions {
					v += tr.P * vals[tr.To]
				}
				if d := math.Abs(v - vals[s]); d > delta {
					delta = d
				}
				vals[s] = v
			}
			if delta < 1e-10 {
				break
			}
		}
		for s := 0; s < n; s++ {
			if math.IsInf(res.Values[s], 1) {
				continue
			}
			if math.Abs(vals[s]-res.Values[s]) > 1e-5 {
				t.Fatalf("trial %d: policy value %v != optimal %v at state %d",
					trial, vals[s], res.Values[s], s)
			}
		}
	}
}

// TestMaxProbValuesBounded: Pmax values of random MDPs are within [0,1] and
// monotone under adding a choice (property-style check).
func TestMaxProbValuesBounded(t *testing.T) {
	src := randx.New(321)
	for trial := 0; trial < 20; trial++ {
		m, target := randomMDP(src.SplitN("t", trial), 30, 2)
		res, err := m.MaxReachProb(target, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for s, v := range res.Values {
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("trial %d: Pmax(%d) = %v out of [0,1]", trial, s, v)
			}
		}
		// The forward chain guarantees reachability: Pmax(s) = 1.
		for s, v := range res.Values {
			if math.Abs(v-1) > 1e-6 {
				t.Fatalf("trial %d: Pmax(%d) = %v, want 1 (chain exists)", trial, s, v)
			}
		}
	}
}

func TestLabelLengthMismatch(t *testing.T) {
	m := chainMDP(3)
	if _, err := m.MaxReachProb([]bool{true}, nil, SolveOptions{}); err == nil {
		t.Error("short target vector accepted")
	}
	if _, err := m.MinExpectedReward([]bool{true}, nil, SolveOptions{}); err == nil {
		t.Error("short target vector accepted")
	}
}

func TestSolverMethodString(t *testing.T) {
	if GaussSeidel.String() != "gauss-seidel" || Jacobi.String() != "jacobi" {
		t.Error("method names wrong")
	}
}

func TestDeadlockStateHandled(t *testing.T) {
	const s0, dead, goal = 0, 1, 2
	m := pack([][]Choice{
		s0:   {{Reward: 1, Transitions: []Transition{{To: dead, P: 0.5}, {To: goal, P: 0.5}}}},
		goal: nil,
	})
	target := []bool{false, false, true}
	res, err := m.MaxReachProb(target, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[dead] != 0 {
		t.Error("deadlock state must have Pmax 0")
	}
	if math.Abs(res.Values[s0]-0.5) > 1e-9 {
		t.Errorf("Pmax(s0) = %v, want 0.5", res.Values[s0])
	}
	rres, err := m.MinExpectedReward(target, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rres.Values[s0], 1) {
		t.Error("s0 cannot reach goal a.s. through a possible deadlock")
	}
}

// An empty model solves to empty results under both queries and both
// methods.
func TestEmptyModel(t *testing.T) {
	for _, method := range []SolverMethod{GaussSeidel, Jacobi} {
		opt := SolveOptions{Method: method}
		for name, solve := range map[string]func([]bool, []bool, SolveOptions) (Result, error){
			"Rmin": pack(nil).MinExpectedReward,
			"Pmax": pack(nil).MaxReachProb,
		} {
			res, err := solve(nil, nil, opt)
			if err != nil {
				t.Fatalf("%s %v: %v", name, method, err)
			}
			if len(res.Values) != 0 || len(res.Strategy) != 0 {
				t.Errorf("%s %v: %d values, %d strategy entries", name, method, len(res.Values), len(res.Strategy))
			}
		}
	}
}
