package mdp

import (
	"errors"
	"math"
	"testing"

	"meda/internal/randx"
)

// randomMDP builds a structurally valid random MDP: n states, 1–4 choices
// per state, 1–3 transitions per choice with normalized probabilities, a
// random target/avoid labeling. Target states are made absorbing so Rmin is
// finite somewhere.
func randomLabeledMDP(n int, src *randx.Source) (*MDP, []bool, []bool) {
	m := New()
	m.AddStates(n)
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
			m.AddChoice(StateID(s), c, src.Float64()*3, trs)
		}
	}
	return m, target, avoid
}

// referenceProb1E is the original forward-scan fixpoint, kept in the test as
// the oracle for the CSR worklist implementation.
func referenceProb1E(m *MDP, target, avoid []bool) []bool {
	n := m.NumStates()
	inU := make([]bool, n)
	for s := 0; s < n; s++ {
		inU[s] = avoid == nil || !avoid[s]
	}
	inR := make([]bool, n)
	for {
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
			return inU
		}
	}
}

func TestProb1EMatchesReference(t *testing.T) {
	src := randx.New(7)
	for trial := 0; trial < 40; trial++ {
		m, target, avoid := randomLabeledMDP(20+src.IntN(60), src.SplitN("mdp", trial))
		got := m.Prob1E(target, avoid)
		want := referenceProb1E(m, target, avoid)
		for s := range got {
			if got[s] != want[s] {
				t.Fatalf("trial %d: Prob1E disagrees at state %d: got %v want %v", trial, s, got[s], want[s])
			}
		}
	}
}

// TestJacobiMatchesGaussSeidelRandomized is the differential test of the CSR
// engine: on randomized MDPs, the Jacobi solver must agree with Gauss-Seidel
// — values within tolerance, and identical strategy picks wherever the
// optimum is unique by a clear margin.
func TestJacobiMatchesGaussSeidelRandomized(t *testing.T) {
	src := randx.New(11)
	for trial := 0; trial < 30; trial++ {
		m, target, avoid := randomLabeledMDP(30+src.IntN(70), src.SplitN("mdp", trial))
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
	m := New()
	a := m.AddState()
	b := m.AddState()
	goal := m.AddState()
	m.AddChoice(a, 7, 1, []Transition{{To: b, P: 1 - 1e-6}, {To: goal, P: 1e-6}})
	m.AddChoice(b, 8, 1, []Transition{{To: a, P: 1 - 1e-6}, {To: goal, P: 1e-6}})
	m.AddChoice(goal, -1, 0, []Transition{{To: goal, P: 1}})
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
	m := New()
	s := m.AddState()
	m.AddChoice(s, 42, 1, []Transition{{To: s, P: 0.5}})
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
