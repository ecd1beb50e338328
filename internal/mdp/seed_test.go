package mdp

import (
	"fmt"
	"math"
	"testing"

	"meda/internal/randx"
)

// coldVI runs value iteration from 0 over the non-frozen states, as Rmin
// did before the shortest-path seed, and records in as the almost-sure set
// the solve body computed: the states it did not pin at +Inf.
func coldVI(as *[]bool) viFunc {
	return func(g *csr, vals []float64, frozen []bool, opt SolveOptions, bellman backupFunc) (int, error) {
		*as = make([]bool, len(vals))
		for s := range vals {
			(*as)[s] = !math.IsInf(vals[s], 1)
			if !frozen[s] {
				vals[s] = 0
			}
		}
		return g.iterate(vals, frozen, opt, bellman)
	}
}

// seedStats tallies what diffSeeded compared: solves, the seeded ones,
// and the ones whose reference ran out of iterations.
type seedStats struct{ Solves, Seeded, Exhausted int }

// diffSeeded solves m for Rmin with the production solver and with the
// algorithm before the shortest-path seed: prob1E, then value iteration
// from 0. It describes the first difference: an almost-sure set other than
// Prob1E's, an error or ConvergenceError field, a value's bits or a strategy
// pick. A seeded solve must run exactly one sweep; an unseeded one must
// also match the reference's iteration count.
func diffSeeded(m *MDP, target, avoid []bool, opt SolveOptions, st *seedStats) error {
	want := m.Prob1E(target, avoid)
	before := telSeeded.Value()
	a, aerr := m.MinExpectedReward(target, avoid, opt)
	seeded := telSeeded.Value() != before
	var as []bool
	b, berr := m.minExpectedReward(target, avoid, opt, coldVI(&as))
	st.Solves++
	if seeded {
		st.Seeded++
	}
	if berr != nil {
		st.Exhausted++
	}
	for s := range want {
		if as[s] != want[s] {
			return fmt.Errorf("state %d: almost-sure %v, Prob1E %v", s, as[s], want[s])
		}
	}
	if seeded && aerr == nil {
		if a.Iterations != 1 {
			return fmt.Errorf("seeded solve ran %d sweeps, want 1", a.Iterations)
		}
		a.Iterations = b.Iterations
	}
	if d := diffResult(a, aerr, b, berr); d != "" {
		return fmt.Errorf("%v eps %g maxiter %d seeded %v: %s", opt.Method, opt.Eps, opt.MaxIter, seeded, d)
	}
	return nil
}

// diffSeededGrid runs diffSeeded over both methods, Eps of 1e-9 (the
// default), 1 and 1.5, and MaxIter of the default, dmax+1 and dmax+2, with
// dmax the largest finite Rmin value: the seed needs Eps ≤ 1 and
// MaxIter ≥ dmax+2.
func diffSeededGrid(m *MDP, target, avoid []bool) (seedStats, error) {
	var st seedStats
	var as []bool
	ref, err := m.minExpectedReward(target, avoid, SolveOptions{}, coldVI(&as))
	if err != nil {
		return st, err
	}
	dmax := 0.0
	for _, v := range ref.Values {
		if !math.IsInf(v, 1) {
			dmax = max(dmax, v)
		}
	}
	d := int(math.Min(math.Ceil(dmax), 1e4))
	for _, method := range []SolverMethod{GaussSeidel, Jacobi} {
		for _, eps := range []float64{0, 1, 1.5} {
			for _, maxIter := range []int{0, d + 1, d + 2} {
				opt := SolveOptions{Method: method, Eps: eps, MaxIter: maxIter}
				if err := diffSeeded(m, target, avoid, opt, &st); err != nil {
					return st, err
				}
			}
		}
	}
	return st, nil
}

// DiffSeededGrid exposes diffSeededGrid to the external test that runs it
// over the routing models of the benchmark assays, returning the number of
// solves and of seeded ones.
func DiffSeededGrid(m *MDP, target, avoid []bool) (solves, seeded int, err error) {
	st, err := diffSeededGrid(m, target, avoid)
	return st.Solves, st.Seeded, err
}

// TestSeededSolveExact: on random deterministic models with unit costs,
// seeding value iteration with BFS distances reproduces prob1E plus cold
// value iteration bit for bit — almost-sure sets, values, strategies and
// every ConvergenceError field — and declines the seed wherever cold value
// iteration would stop elsewhere or run out of sweeps.
func TestSeededSolveExact(t *testing.T) {
	src := randx.New(17)
	next := func() int { return src.IntN(256) }
	var total seedStats
	fallback := 0
	for trial := 0; trial < 300; trial++ {
		m, target, avoid := decodeUnitMDP(next)
		st, err := diffSeededGrid(m, target, avoid)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if st.Seeded == 0 {
			fallback++
		}
		total.Solves += st.Solves
		total.Seeded += st.Seeded
		total.Exhausted += st.Exhausted
	}
	if total.Seeded == 0 || fallback == 0 || total.Exhausted == 0 {
		t.Fatalf("grid not covered: %d seeded solves, %d models never seeded, %d exhausted references",
			total.Seeded, fallback, total.Exhausted)
	}
	t.Logf("%d solves, %d seeded; %d models never seeded; %d references exhausted MaxIter",
		total.Solves, total.Seeded, fallback, total.Exhausted)
}

// TestUnitDistancesSelection: the shortest-path pass takes exactly the
// deterministic unit-cost models, and its distances are the hop counts.
func TestUnitDistancesSelection(t *testing.T) {
	one := func(to StateID) []Transition { return []Transition{{To: to, P: 1}} }
	// chain builds 0 → 1 → 2 → 3 (target) with unit choices, a pure
	// self-loop of reward 0 on state 1 and a zero-reward source 4 → 1,
	// and gives state 2 one more choice, extra, when it is set.
	chain := func(extra *Choice) *MDP {
		cs := [][]Choice{
			{{Reward: 1, Transitions: one(1)}},
			{{Reward: 0, Transitions: one(1)}, {Action: 1, Reward: 1, Transitions: one(2)}},
			{{Reward: 1, Transitions: one(3)}},
			nil,
			{{Reward: 0, Transitions: one(1)}},
		}
		if extra != nil {
			cs[2] = append(cs[2], *extra)
		}
		return pack(cs)
	}
	target := []bool{false, false, false, true, false}
	cases := []struct {
		name  string
		extra *Choice
		unit  bool
	}{
		{"unit chain", nil, true},
		{"zero-reward choice on a state with predecessors", &Choice{Action: 1, Reward: 0, Transitions: one(0)}, false},
		{"reward 2", &Choice{Action: 1, Reward: 2, Transitions: one(0)}, false},
		{"zero-probability edge", &Choice{Action: 1, Reward: 1, Transitions: []Transition{{To: 3, P: 1}, {To: 0, P: 0}}}, false},
		{"p < 1", &Choice{Action: 1, Reward: 1, Transitions: []Transition{{To: 3, P: 0.5}, {To: 0, P: 0.5}}}, false},
	}
	for _, c := range cases {
		g := chain(c.extra).g
		dist := make([]float64, g.n)
		as, dmax := g.unitDistances(target, nil, dist)
		if (as != nil) != c.unit {
			t.Errorf("%s: shortest-path pass taken %v, want %v", c.name, as != nil, c.unit)
			continue
		}
		if !c.unit {
			continue
		}
		if dmax != 3 {
			t.Errorf("%s: dmax %d, want 3", c.name, dmax)
		}
		for s, want := range []float64{3, 2, 1, 0, 2} {
			if !as[s] || math.Float64bits(dist[s]) != math.Float64bits(want) {
				t.Errorf("%s: state %d almost-sure %v distance %v, want %v", c.name, s, as[s], dist[s], want)
			}
		}
	}
}
