package mdp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"meda/internal/randx"
)

// fullSweepGS is Gauss-Seidel with full sweeps: every non-frozen state is
// backed up in every sweep, alternating direction.
// It is the oracle for csr.iterate, which must reproduce its values,
// residuals and sweep counts bit for bit. backups counts the Bellman
// backups it evaluates.
func fullSweepGS(backups *int) viFunc {
	return func(g *csr, vals []float64, frozen []bool, opt SolveOptions, bellman backupFunc) (int, error) {
		for iters := 0; iters < opt.MaxIter; iters++ {
			delta, worst := 0.0, -1
			backup := func(s int) {
				if frozen[s] {
					return
				}
				*backups++
				v := bellman(g, s, vals)
				if d := math.Abs(v - vals[s]); d > delta {
					delta = d
					worst = s
				}
				vals[s] = v
			}
			if iters%2 == 1 {
				for s := g.n - 1; s >= 0; s-- {
					backup(s)
				}
			} else {
				for s := 0; s < g.n; s++ {
					backup(s)
				}
			}
			if delta < opt.Eps {
				return iters + 1, nil
			}
			if iters == opt.MaxIter-1 {
				return iters + 1, g.convergenceError(worst, delta, opt.MaxIter)
			}
		}
		return 0, g.convergenceError(-1, math.Inf(1), opt.MaxIter)
	}
}

// exactStats tallies what diffSolves compared: the Bellman backups the
// production solves and the full-sweep reference evaluated, and the solves
// that ran out of iterations.
type exactStats struct{ Backups, FullBackups, Exhausted int }

// diffSolves solves m for Rmin and Pmax with the production Gauss-Seidel
// solver and with the full-sweep reference, and describes the first
// difference between them: an error, a ConvergenceError field, a value's
// bits, a strategy pick or an iteration count. The error is nil when both
// solves are bit-identical.
func diffSolves(m *MDP, target, avoid []bool, opt SolveOptions) (exactStats, error) {
	var st exactStats
	opt.Method = GaussSeidel
	for _, q := range []struct {
		name string
		prod func(target, avoid []bool, opt SolveOptions) (Result, error)
		ref  func(target, avoid []bool, opt SolveOptions, vi viFunc) (Result, error)
	}{
		{"Rmin", m.MinExpectedReward, m.minExpectedReward},
		{"Pmax", m.MaxReachProb, m.maxReachProb},
	} {
		before := telBackups.Value()
		a, aerr := q.prod(target, avoid, opt)
		st.Backups += int(telBackups.Value() - before)
		b, berr := q.ref(target, avoid, opt, fullSweepGS(&st.FullBackups))
		if d := diffResult(a, aerr, b, berr); d != "" {
			return st, fmt.Errorf("%s: %s", q.name, d)
		}
		if aerr != nil {
			st.Exhausted++
		}
	}
	return st, nil
}

// DiffAgainstFullSweep exposes diffSolves to the external test that runs it
// over the routing models of the benchmark assays, returning the backups
// of the production solves and of full sweeps.
func DiffAgainstFullSweep(m *MDP, target, avoid []bool, opt SolveOptions) (backups, full int, err error) {
	st, err := diffSolves(m, target, avoid, opt)
	return st.Backups, st.FullBackups, err
}

func diffResult(a Result, aerr error, b Result, berr error) string {
	if (aerr == nil) != (berr == nil) {
		return fmt.Sprintf("error %v, reference %v", aerr, berr)
	}
	if aerr != nil {
		var ae, be *ConvergenceError
		if !errors.As(aerr, &ae) || !errors.As(berr, &be) {
			return fmt.Sprintf("error %v, reference %v", aerr, berr)
		}
		if ae.State != be.State || ae.Action != be.Action || ae.Iterations != be.Iterations ||
			math.Float64bits(ae.Delta) != math.Float64bits(be.Delta) {
			return fmt.Sprintf("convergence error %+v, reference %+v", *ae, *be)
		}
		return ""
	}
	if a.Iterations != b.Iterations {
		return fmt.Sprintf("%d iterations, reference %d", a.Iterations, b.Iterations)
	}
	if len(a.Values) != len(b.Values) || len(a.Strategy) != len(b.Strategy) {
		return "result sizes differ"
	}
	for s := range a.Values {
		if math.Float64bits(a.Values[s]) != math.Float64bits(b.Values[s]) {
			return fmt.Sprintf("state %d: value %v (%#x), reference %v (%#x)",
				s, a.Values[s], math.Float64bits(a.Values[s]), b.Values[s], math.Float64bits(b.Values[s]))
		}
		if a.Strategy[s] != b.Strategy[s] {
			return fmt.Sprintf("state %d: choice %d, reference %d", s, a.Strategy[s], b.Strategy[s])
		}
	}
	return ""
}

// decodeExactMDP turns bytes into a labeled MDP and solve options, shaped
// to reach the corners of change-driven sweeps: zero-probability edges,
// several edges of one choice into the same successor, pure and
// near-pure self-loop choices (the latter make an almost-surely-winning
// state's Rmin +Inf), states with no choice, non-almost-sure states pinned
// at +Inf, and iteration caps that run out. Models are built through the
// Builder or through AddChoice. With unitMode, one mode bit instead yields
// a deterministic model with unit costs (decodeUnitMDP), reported by unit;
// without it that bit is ignored, so the byte string decodes to the same
// general model either way. Exhausted input reads as zeros, so every byte
// string decodes.
func decodeExactMDP(data []byte, unitMode bool) (m *MDP, target, avoid []bool, opt SolveOptions, unit bool) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	if next()%4 == 0 {
		opt.MaxIter = 1 + next()%6
	}
	if next()%2 == 0 {
		opt.Eps = 1e-12
	}
	mode := next()
	builder := mode%2 == 0
	if unitMode && mode/2%2 == 1 {
		m, target, avoid = decodeUnitMDP(next, builder)
		return m, target, avoid, opt, true
	}
	n := 1 + next()%48
	target = make([]bool, n)
	avoid = make([]bool, n)
	for s := range target {
		switch next() % 8 {
		case 0:
			target[s] = true
		case 1:
			avoid[s] = true
		}
	}
	var b Builder
	b.Reset()
	b.AddStates(n)
	m = New()
	m.AddStates(n)
	for s := 0; s < n; s++ {
		nc := next() % 4
		if !target[s] && nc == 0 && next()%4 != 0 {
			nc = 1 // keep deadlocks a minority
		}
		for c := 0; c < nc; c++ {
			reward := float64(next() % 4)
			var trs []Transition
			switch next() % 8 {
			case 0: // pure self-loop
				trs = []Transition{{To: StateID(s), P: 1}}
			case 1: // near-pure self-loop: slInv marks it 0 though it leaves
				trs = []Transition{{To: StateID(s), P: 1 - 1e-13}, {To: StateID(next() % n), P: 1e-13}}
			default:
				nt := 1 + next()%4
				total := 0
				w := make([]int, nt)
				for i := range w {
					w[i] = next() % 5 // 0 is a zero-probability edge
					total += w[i]
				}
				if total == 0 {
					w[0], total = 1, 1
				}
				to := next() % n
				for i := range w {
					if next()%3 != 0 { // else repeat the previous successor
						to = next() % n
					}
					trs = append(trs, Transition{To: StateID(to), P: float64(w[i]) / float64(total)})
				}
			}
			if builder {
				b.BeginChoice(StateID(s), c, reward)
				for _, tr := range trs {
					b.Transition(tr.To, tr.P)
				}
			} else {
				m.AddChoice(StateID(s), c, reward, trs)
			}
		}
	}
	if builder {
		m = b.Build()
	}
	return m, target, avoid, opt, false
}

// decodeUnitMDP decodes a deterministic model with unit costs, the kind
// Rmin solves by shortest paths: unit choices, pure self-loops of any
// reward, dead ends, avoid states, several targets, islands the targets
// cannot reach, and in half the models a zero-reward source like smg's
// Init commit. A third of the models add one choice that rules the
// shortest-path solve out: a zero-reward cycle, reward 2, a p = 1 edge
// beside a p = 0 edge, or a choice with p < 1.
func decodeUnitMDP(next func() int, builder bool) (*MDP, []bool, []bool) {
	n := 1 + next()%48
	target := make([]bool, n)
	avoid := make([]bool, n)
	for s := range target {
		switch next() % 8 {
		case 0:
			target[s] = true
		case 1:
			avoid[s] = true
		}
	}
	to := func(ts ...int) []Transition {
		trs := make([]Transition, len(ts))
		for i, t := range ts {
			trs[i] = Transition{To: StateID(t), P: 1}
		}
		return trs
	}
	choices := make([][]Choice, n, n+1)
	for s := range choices {
		for c := next() % 4; c > 0; c-- { // none: a dead end
			if next()%6 == 0 {
				choices[s] = append(choices[s], Choice{Reward: float64(next() % 3), Transitions: to(s)})
			} else {
				choices[s] = append(choices[s], Choice{Reward: 1, Transitions: to(next() % n)})
			}
		}
	}
	if next()%2 == 0 {
		src := []Choice{{Reward: 0, Transitions: to(next() % n)}}
		if next()%2 == 0 {
			src = append(src, Choice{Reward: 1, Transitions: to(next() % n)})
		}
		choices = append(choices, src)
		target = append(target, false)
		avoid = append(avoid, false)
		n++
	}
	s, t := next()%n, next()%n
	switch next() % 12 {
	case 0:
		choices[s] = append(choices[s], Choice{Reward: 0, Transitions: to(t)})
		choices[t] = append(choices[t], Choice{Reward: 0, Transitions: to(s)})
	case 1:
		choices[s] = append(choices[s], Choice{Reward: 2, Transitions: to(t)})
	case 2:
		choices[s] = append(choices[s], Choice{Reward: 1, Transitions: []Transition{{To: StateID(t), P: 1}, {To: StateID(s), P: 0}}})
	case 3:
		choices[s] = append(choices[s], Choice{Reward: 1, Transitions: []Transition{{To: StateID(t), P: 0.5}, {To: StateID(s), P: 0.5}}})
	}
	if !builder {
		m := New()
		m.AddStates(n)
		for s, cs := range choices {
			for c, ch := range cs {
				m.AddChoice(StateID(s), c, ch.Reward, ch.Transitions)
			}
		}
		return m, target, avoid
	}
	var b Builder
	b.Reset()
	b.AddStates(n)
	for s, cs := range choices {
		for c, ch := range cs {
			b.BeginChoice(StateID(s), c, ch.Reward)
			for _, tr := range ch.Transitions {
				b.Transition(tr.To, tr.P)
			}
		}
	}
	return b.Build(), target, avoid
}

// TestChangeDrivenSweepsExact: on random general models, change-driven
// Gauss-Seidel reproduces full sweeps bit for bit under both objectives —
// values (compared as bits), strategies, iteration counts, and every
// ConvergenceError field when MaxIter runs out — while evaluating no more
// backups than they do. Unit mode stays off: a seeded deterministic model
// confirms in one sweep on both sides and would test nothing here;
// TestSeededSolveExact and FuzzSolveExact cover those models.
func TestChangeDrivenSweepsExact(t *testing.T) {
	src := randx.New(16)
	data := make([]byte, 4096)
	var total exactStats
	for trial := 0; trial < 200; trial++ {
		for i := range data {
			data[i] = byte(src.IntN(256))
		}
		m, target, avoid, opt, _ := decodeExactMDP(data, false)
		st, err := diffSolves(m, target, avoid, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if st.Backups > st.FullBackups {
			t.Fatalf("trial %d: %d backups, more than the %d of full sweeps", trial, st.Backups, st.FullBackups)
		}
		total.Backups += st.Backups
		total.FullBackups += st.FullBackups
		total.Exhausted += st.Exhausted
	}
	if total.Exhausted == 0 {
		t.Fatal("no solve ran out of iterations")
	}
	t.Logf("backups: %d of %d full-sweep backups (%.0f%% skipped); %d solves exhausted MaxIter",
		total.Backups, total.FullBackups, 100*(1-float64(total.Backups)/float64(total.FullBackups)), total.Exhausted)
}

// FuzzSolveExact checks the same bit-identity on fuzzer-shaped models, and
// on deterministic ones also the shortest-path seed against cold solves.
func FuzzSolveExact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 12, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 7, 9, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, target, avoid, opt, unit := decodeExactMDP(data, true)
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder built an invalid model: %v", err)
		}
		if _, err := diffSolves(m, target, avoid, opt); err != nil {
			t.Fatal(err)
		}
		if unit {
			if _, err := diffSeededGrid(m, target, avoid); err != nil {
				t.Fatal(err)
			}
		}
	})
}
