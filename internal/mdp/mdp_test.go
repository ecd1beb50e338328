package mdp

import (
	"math"
	"testing"

	"meda/internal/randx"
)

// chainMDP builds a deterministic chain 0 → 1 → ... → n−1 with unit rewards.
func chainMDP(n int) *MDP {
	m := New()
	m.AddStates(n)
	for s := 0; s < n-1; s++ {
		m.AddChoice(StateID(s), 0, 1, []Transition{{To: StateID(s + 1), P: 1}})
	}
	return m
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
	m := New()
	s := m.AddState()
	m.AddChoice(s, 0, 1, nil)
	if err := m.Validate(); err == nil {
		t.Error("empty transition list accepted")
	}

	m = New()
	s = m.AddState()
	m.AddChoice(s, 0, 1, []Transition{{To: 7, P: 1}})
	if err := m.Validate(); err == nil {
		t.Error("out-of-range target accepted")
	}

	m = New()
	s = m.AddState()
	m.AddChoice(s, 0, 1, []Transition{{To: s, P: 0.5}})
	if err := m.Validate(); err == nil {
		t.Error("sub-stochastic distribution accepted")
	}

	m = New()
	s = m.AddState()
	m.AddChoice(s, 0, -1, []Transition{{To: s, P: 1}})
	if err := m.Validate(); err == nil {
		t.Error("negative reward accepted")
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
		m := New()
		s0 := m.AddState()
		goal := m.AddState()
		m.AddChoice(s0, 0, 1, []Transition{{To: goal, P: p}, {To: s0, P: 1 - p}})
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
	m := New()
	s0 := m.AddState()
	a := m.AddState()
	b := m.AddState()
	goal := m.AddState()
	// Choice 0: deterministic detour of 3 steps.
	m.AddChoice(s0, 100, 1, []Transition{{To: a, P: 1}})
	m.AddChoice(a, 0, 1, []Transition{{To: b, P: 1}})
	m.AddChoice(b, 0, 1, []Transition{{To: goal, P: 1}})
	// Choice 1: geometric with p = 0.5 → expected 2 steps.
	m.AddChoice(s0, 200, 1, []Transition{{To: goal, P: 0.5}, {To: s0, P: 0.5}})
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
	m := New()
	s0 := m.AddState()
	trap := m.AddState()
	goal := m.AddState()
	m.AddChoice(s0, 0, 1, []Transition{{To: trap, P: 1}})
	m.AddChoice(trap, 0, 1, []Transition{{To: trap, P: 1}})
	m.AddChoice(goal, 0, 1, []Transition{{To: goal, P: 1}})
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
	m := New()
	s0 := m.AddState()
	trap := m.AddState()
	goal := m.AddState()
	m.AddChoice(s0, 0, 1, []Transition{{To: goal, P: 0.9}, {To: trap, P: 0.1}})
	m.AddChoice(trap, 0, 1, []Transition{{To: trap, P: 1}})
	res, err := m.MinExpectedReward([]bool{false, false, true}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Values[s0], 1) {
		t.Errorf("J(s0) = %v, want +Inf", res.Values[s0])
	}
}

func TestProb1E(t *testing.T) {
	m := New()
	s0 := m.AddState()   // can retry forever → a.s.
	s1 := m.AddState()   // risky only → not a.s.
	trap := m.AddState() // absorbing
	goal := m.AddState()
	m.AddChoice(s0, 0, 1, []Transition{{To: goal, P: 0.5}, {To: s0, P: 0.5}})
	m.AddChoice(s1, 0, 1, []Transition{{To: goal, P: 0.5}, {To: trap, P: 0.5}})
	m.AddChoice(trap, 0, 1, []Transition{{To: trap, P: 1}})
	target := []bool{false, false, false, true}
	as := m.Prob1E(target, nil)
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
	m := New()
	s0 := m.AddState()
	s1 := m.AddState()
	trap := m.AddState()
	goal := m.AddState()
	// s0 has two choices: safe 0.9 to goal / 0.1 trap, or 0.5/0.5 via s1.
	m.AddChoice(s0, 1, 1, []Transition{{To: goal, P: 0.9}, {To: trap, P: 0.1}})
	m.AddChoice(s0, 2, 1, []Transition{{To: s1, P: 0.5}, {To: trap, P: 0.5}})
	m.AddChoice(s1, 0, 1, []Transition{{To: goal, P: 1}})
	m.AddChoice(trap, 0, 1, []Transition{{To: trap, P: 1}})
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
	m := New()
	s0 := m.AddState()
	hz := m.AddState()
	goal := m.AddState()
	// Direct risky route passes through the hazard with p=0.4.
	m.AddChoice(s0, 1, 1, []Transition{{To: goal, P: 0.6}, {To: hz, P: 0.4}})
	// Slow route: self-loop with small success, never hazard.
	m.AddChoice(s0, 2, 1, []Transition{{To: goal, P: 0.2}, {To: s0, P: 0.8}})
	m.AddChoice(hz, 0, 1, []Transition{{To: goal, P: 1}})
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
	m := New()
	s := m.AddState()
	m.AddChoice(s, 0, 1, []Transition{{To: s, P: 1}})
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
	m := New()
	m.AddStates(n)
	for s := 0; s < n-1; s++ {
		for c := 0; c < k; c++ {
			// Two-successor distribution with a bias toward moving
			// forward so the target is reachable.
			t1 := StateID(src.IntN(n))
			t2 := StateID(src.IntN(n))
			p := 0.2 + 0.6*src.Float64()
			m.AddChoice(StateID(s), c, 1, []Transition{{To: t1, P: p}, {To: t2, P: 1 - p}})
		}
		// Guarantee a path onward.
		m.AddChoice(StateID(s), k, 1, []Transition{{To: StateID(s + 1), P: 1}})
	}
	m.AddChoice(StateID(n-1), 0, 1, []Transition{{To: StateID(n - 1), P: 1}})
	return m, labelLast(n)
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
	m := New()
	s0 := m.AddState()
	dead := m.AddState()
	goal := m.AddState()
	m.AddChoice(s0, 0, 1, []Transition{{To: dead, P: 0.5}, {To: goal, P: 0.5}})
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
	_ = dead
}

// An empty model solves to empty results under both queries and both
// methods.
func TestEmptyModel(t *testing.T) {
	for _, method := range []SolverMethod{GaussSeidel, Jacobi} {
		opt := SolveOptions{Method: method}
		for name, solve := range map[string]func([]bool, []bool, SolveOptions) (Result, error){
			"Rmin": New().MinExpectedReward,
			"Pmax": New().MaxReachProb,
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
