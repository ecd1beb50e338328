package mdp

import (
	"errors"
	"math"
	"slices"
	"testing"

	"meda/internal/randx"
)

// randomLabeled draws the choices of a structurally valid random MDP: n
// states, 1–4 choices per state, 1–3 transitions per choice with normalized
// probabilities, and a random target/avoid labeling.
func randomLabeled(n int, src *randx.Source) ([][]Choice, []bool, []bool) {
	cs := make([][]Choice, n)
	target := make([]bool, n)
	avoid := make([]bool, n)
	for s := 0; s < n; s++ {
		switch src.IntN(10) {
		case 0:
			target[s] = true
		case 1:
			avoid[s] = true
		}
	}
	for s := 0; s < n; s++ {
		nc := 1 + src.IntN(4)
		for c := 0; c < nc; c++ {
			nt := 1 + src.IntN(3)
			trs := make([]Transition, nt)
			total := 0.0
			for t := range trs {
				trs[t].To = StateID(src.IntN(n))
				w := src.Float64() + 0.05
				trs[t].P = w
				total += w
			}
			for t := range trs {
				trs[t].P /= total
			}
			cs[s] = append(cs[s], Choice{Action: c, Reward: src.Float64() * 3, Transitions: trs})
		}
	}
	return cs, target, avoid
}

// referenceProb1E is the original forward-scan fixpoint, kept in the test as
// the oracle for the CSR worklist implementation. It also reports the outer
// rounds it ran, the last one being the round that changed nothing.
func referenceProb1E(m *MDP, target, avoid []bool) ([]bool, int) {
	n := m.NumStates()
	inU := make([]bool, n)
	for s := 0; s < n; s++ {
		inU[s] = avoid == nil || !avoid[s]
	}
	inR := make([]bool, n)
	for rounds := 1; ; rounds++ {
		for s := 0; s < n; s++ {
			inR[s] = inU[s] && target[s]
		}
		for changed := true; changed; {
			changed = false
			for s := 0; s < n; s++ {
				if !inU[s] || inR[s] {
					continue
				}
			choiceLoop:
				for _, c := range m.Choices(StateID(s)) {
					hits := false
					for _, tr := range c.Transitions {
						if tr.P == 0 {
							continue
						}
						if !inU[tr.To] {
							continue choiceLoop
						}
						if inR[tr.To] {
							hits = true
						}
					}
					if hits {
						inR[s] = true
						changed = true
						break
					}
				}
			}
		}
		same := true
		for s := 0; s < n; s++ {
			if inU[s] != inR[s] {
				same = false
			}
			inU[s] = inR[s]
		}
		if same {
			return inU, rounds
		}
	}
}

// chainAvoid extends a random labeled MDP with a chain that peels off
// one state per outer round of Prob1E. A fresh absorbing target T and
// avoid state A are added, then states x1..xk where x_i flips a fair coin
// between T and x_{i-1} (x_0 = A) or idles in a self-loop. x1 leaves in
// the first round; x_i reaches T inside U until x_{i-1} has left, so it
// leaves in round i. A few random states gain a choice into x_k, so the
// peeling carries on into the random part of the model.
func chainAvoid(src *randx.Source) ([][]Choice, []bool, []bool) {
	cs, target, avoid := randomLabeled(20+src.IntN(40), src)
	base := len(cs)
	k := 2 + src.IntN(5)
	tgt, av := StateID(base), StateID(base+1)
	cs = append(cs,
		[]Choice{{Transitions: []Transition{{To: tgt, P: 1}}}},
		[]Choice{{Transitions: []Transition{{To: av, P: 1}}}})
	target = append(target, true, false)
	avoid = append(avoid, false, true)
	prev := av
	for i := 0; i < k; i++ {
		x := StateID(len(cs))
		cs = append(cs, []Choice{
			{Reward: 1, Transitions: []Transition{{To: tgt, P: 0.5}, {To: prev, P: 0.5}}},
			{Action: 1, Reward: 1, Transitions: []Transition{{To: x, P: 1}}},
		})
		target = append(target, false)
		avoid = append(avoid, false)
		prev = x
	}
	for i := 0; i < 3; i++ {
		s := src.IntN(base)
		cs[s] = append(cs[s], Choice{Action: 9, Reward: 1, Transitions: []Transition{{To: prev, P: 1}}})
	}
	return cs, target, avoid
}

// TestProb1EMatchesReference checks the incremental worklist fixpoint
// against the forward-scan reference on random models, and on models whose
// avoid chains need three or more outer rounds.
func TestProb1EMatchesReference(t *testing.T) {
	src := randx.New(7)
	deep := 0
	for trial := 0; trial < 80; trial++ {
		var cs [][]Choice
		var target, avoid []bool
		if trial < 40 {
			cs, target, avoid = randomLabeled(20+src.IntN(60), src.SplitN("mdp", trial))
		} else {
			cs, target, avoid = chainAvoid(src.SplitN("chain", trial))
		}
		m := pack(cs)
		got := slices.Clone(m.g.prob1E(target, avoid))
		want, rounds := referenceProb1E(m, target, avoid)
		if rounds >= 3 {
			deep++
		}
		for s := range got {
			if got[s] != want[s] {
				t.Fatalf("trial %d (%d rounds): Prob1E disagrees at state %d: got %v want %v", trial, rounds, s, got[s], want[s])
			}
		}
	}
	if deep < 40 {
		t.Fatalf("%d of 80 models needed three or more outer rounds, want at least 40", deep)
	}
}

// TestJacobiMatchesGaussSeidelRandomized is the differential test of the CSR
// engine: on randomized MDPs, the Jacobi solver must agree with Gauss-Seidel
// — values within tolerance, and identical strategy picks wherever the
// optimum is unique by a clear margin. A model keeps its solver index and
// scratch across solves, so one built model solved for Rmin, then Pmax,
// then Rmin again must also match each query on a fresh build bit for bit.
func TestJacobiMatchesGaussSeidelRandomized(t *testing.T) {
	src := randx.New(11)
	for trial := 0; trial < 30; trial++ {
		cs, target, avoid := randomLabeled(30+src.IntN(70), src.SplitN("mdp", trial))
		m := pack(cs)
		gs := SolveOptions{Method: GaussSeidel, Eps: 1e-12}
		jac := SolveOptions{Method: Jacobi, Eps: 1e-12}

		rg, err := m.MaxReachProb(target, avoid, gs)
		if err != nil {
			t.Fatal(err)
		}
		rj, err := m.MaxReachProb(target, avoid, jac)
		if err != nil {
			t.Fatal(err)
		}
		compareSolves(t, m, rg, rj, false)

		eg, err := m.MinExpectedReward(target, avoid, gs)
		if err != nil {
			t.Fatal(err)
		}
		ej, err := m.MinExpectedReward(target, avoid, jac)
		if err != nil {
			t.Fatal(err)
		}
		compareSolves(t, m, eg, ej, true)

		rmin := func(m *MDP) (Result, error) { return m.MinExpectedReward(target, avoid, gs) }
		pmax := func(m *MDP) (Result, error) { return m.MaxReachProb(target, avoid, gs) }
		reused := pack(cs)
		for i, q := range []func(*MDP) (Result, error){rmin, pmax, rmin} {
			got, gerr := q(reused)
			want, werr := q(pack(cs))
			if d := diffResult(got, gerr, want, werr); d != "" {
				t.Fatalf("trial %d, solve %d of the reused model: %s", trial, i+1, d)
			}
		}
	}
}

// compareSolves checks value agreement everywhere and strategy agreement at
// states where the Bellman optimum is unique by a 1e-6 margin.
func compareSolves(t *testing.T, m *MDP, a, b Result, minimize bool) {
	t.Helper()
	const tol = 1e-6
	for s := range a.Values {
		va, vb := a.Values[s], b.Values[s]
		if math.IsInf(va, 1) != math.IsInf(vb, 1) {
			t.Fatalf("state %d: finiteness disagrees (%v vs %v)", s, va, vb)
		}
		if !math.IsInf(va, 1) && math.Abs(va-vb) > tol {
			t.Fatalf("state %d: values disagree (%v vs %v)", s, va, vb)
		}
		if uniqueOptimum(m, StateID(s), a.Values, minimize) && a.Strategy[s] != b.Strategy[s] {
			t.Fatalf("state %d: unique optimal choice but strategies disagree (%d vs %d)",
				s, a.Strategy[s], b.Strategy[s])
		}
	}
}

// uniqueOptimum reports whether exactly one choice of s attains the Bellman
// optimum under vals, with every other choice worse by > 1e-6.
func uniqueOptimum(m *MDP, s StateID, vals []float64, minimize bool) bool {
	cs := m.Choices(s)
	if len(cs) < 2 {
		return false
	}
	best, second := math.Inf(1), math.Inf(1)
	for _, c := range cs {
		v := 0.0
		if minimize {
			v = c.Reward
		}
		for _, tr := range c.Transitions {
			if tr.P == 0 {
				continue
			}
			v += tr.P * vals[tr.To]
		}
		if !minimize {
			v = -v
		}
		if v < best {
			best, second = v, best
		} else if v < second {
			second = v
		}
	}
	return second-best > 1e-6 && !math.IsInf(second, 1)
}

// TestConvergenceErrorDetail: an exhausted iteration must name the offending
// state and still match errors.Is(…, ErrNoConvergence).
func TestConvergenceErrorDetail(t *testing.T) {
	// Two states feeding each other with reward 1 and a 1e-6 leak to the
	// target: converges very slowly, so MaxIter=3 exhausts.
	const a, b, goal = 0, 1, 2
	m := pack([][]Choice{
		a:    {{Action: 7, Reward: 1, Transitions: []Transition{{To: b, P: 1 - 1e-6}, {To: goal, P: 1e-6}}}},
		b:    {{Action: 8, Reward: 1, Transitions: []Transition{{To: a, P: 1 - 1e-6}, {To: goal, P: 1e-6}}}},
		goal: {{Action: -1, Transitions: []Transition{{To: goal, P: 1}}}},
	})
	target := []bool{false, false, true}
	for _, method := range []SolverMethod{GaussSeidel, Jacobi} {
		_, err := m.MinExpectedReward(target, nil, SolveOptions{Method: method, MaxIter: 3})
		if !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("%v: err = %v, want ErrNoConvergence", method, err)
		}
		var ce *ConvergenceError
		if !errors.As(err, &ce) {
			t.Fatalf("%v: err = %v, want *ConvergenceError", method, err)
		}
		if ce.State != a && ce.State != b {
			t.Errorf("%v: offending state = %d, want %d or %d", method, ce.State, a, b)
		}
		if ce.Action != 7 && ce.Action != 8 {
			t.Errorf("%v: offending action = %d, want 7 or 8", method, ce.Action)
		}
		if ce.Iterations != 3 || ce.Delta <= 0 {
			t.Errorf("%v: iterations=%d delta=%v", method, ce.Iterations, ce.Delta)
		}
	}
}

// TestValidateNamesAction: validation failures must carry the action id.
func TestValidateNamesAction(t *testing.T) {
	m := pack([][]Choice{{{Action: 42, Reward: 1, Transitions: []Transition{{To: 0, P: 0.5}}}}})
	err := m.Validate()
	if err == nil {
		t.Fatal("expected validation error")
	}
	if want := "action 42"; !contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
