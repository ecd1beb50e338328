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
// Builder or through AddChoice. Exhausted input reads as zeros, so every
// byte string decodes.
func decodeExactMDP(data []byte) (*MDP, []bool, []bool, SolveOptions) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var opt SolveOptions
	if next()%4 == 0 {
		opt.MaxIter = 1 + next()%6
	}
	if next()%2 == 0 {
		opt.Eps = 1e-12
	}
	builder := next()%2 == 0
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
	var b Builder
	b.Reset()
	b.AddStates(n)
	m := New()
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
	return m, target, avoid, opt
}

// TestChangeDrivenSweepsExact: on random models, change-driven Gauss-Seidel
// reproduces full sweeps bit for bit under both objectives — values
// (compared as bits), strategies, iteration counts, and every
// ConvergenceError field when MaxIter runs out — while evaluating no more
// backups than they do.
func TestChangeDrivenSweepsExact(t *testing.T) {
	src := randx.New(16)
	data := make([]byte, 4096)
	var total exactStats
	for trial := 0; trial < 200; trial++ {
		for i := range data {
			data[i] = byte(src.IntN(256))
		}
		m, target, avoid, opt := decodeExactMDP(data)
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

// FuzzSolveExact checks the same bit-identity on fuzzer-shaped models.
func FuzzSolveExact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 12, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 7, 9, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, target, avoid, opt := decodeExactMDP(data)
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder built an invalid model: %v", err)
		}
		if _, err := diffSolves(m, target, avoid, opt); err != nil {
			t.Fatal(err)
		}
	})
}
