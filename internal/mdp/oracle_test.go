package mdp_test

import (
	"math"
	"math/big"
	"testing"

	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/smg"
)

// TestRminExactOracleTableV checks the float engine against exact
// arithmetic on the four 10×10 models of Table V (the worst-case uniform
// field, droplets 3×3 to 6×6). Policy iteration in math/big.Rat finds the
// exact Rmin; every float64 probability and reward converts exactly. The
// solver stops on a 1e-9 residual, which does not bound the value error, so
// this is what shows its values lie within 1e-6 of the optimum. The strategy
// it extracts must be optimal exactly: its exact value equals the exact
// optimum in every state. The oracle takes the +Inf states from the
// solver's qualitative pass, a graph computation, and checks the rest.
func TestRminExactOracleTableV(t *testing.T) {
	worn := func(x, y int) float64 { return 0.81 }
	wantStates := map[int]int{3: 67, 4: 52, 5: 39, 6: 28}
	maxErr := 0.0
	for d := 3; d <= 6; d++ {
		model, err := smg.Induce(geom.Rect{XA: 1, YA: 1, XB: 10, YB: 10},
			geom.Rect{XA: 1, YA: 1, XB: d, YB: d},
			geom.Rect{XA: 11 - d, YA: 11 - d, XB: 10, YB: 10}, worn, smg.DefaultModelOptions())
		if err != nil {
			t.Fatal(err)
		}
		m := model.M
		if m.NumStates() != wantStates[d] {
			t.Fatalf("%d×%d: %d states, Table V has %d", d, d, m.NumStates(), wantStates[d])
		}
		res, err := m.MinExpectedReward(model.Goal, model.Hazard, mdp.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		o := newRatOracle(m, model.Goal, res.Values)
		for s := range o.fin {
			if o.open(s) && res.Strategy[s] < 0 {
				t.Fatalf("%d×%d: finite state %d has no strategy choice", d, d, s)
			}
		}

		st := append([]int(nil), res.Strategy...)
		extracted, ok := o.evaluate(st)
		if !ok {
			t.Fatalf("%d×%d: the extracted strategy does not reach the goal almost surely", d, d)
		}
		opt, rounds := extracted, 0
		for o.improve(st, opt) {
			if rounds++; rounds > 100 {
				t.Fatalf("%d×%d: policy iteration did not settle", d, d)
			}
			if opt, ok = o.evaluate(st); !ok {
				t.Fatalf("%d×%d: policy improvement produced an improper strategy", d, d)
			}
		}

		for s, fin := range o.fin {
			if !fin {
				continue
			}
			exact, _ := opt[s].Float64()
			if e := math.Abs(res.Values[s] - exact); e > maxErr {
				maxErr = e
			}
			if math.Abs(res.Values[s]-exact) > 1e-6 {
				t.Errorf("%d×%d state %d: Rmin %v, exact %v", d, d, s, res.Values[s], exact)
			}
			if extracted[s].Cmp(opt[s]) != 0 {
				t.Errorf("%d×%d state %d: extracted strategy's value %s exceeds the optimum %s",
					d, d, s, extracted[s].FloatString(12), opt[s].FloatString(12))
			}
		}
		t.Logf("%d×%d: %d states, %d improvement rounds", d, d, m.NumStates(), rounds)
	}
	t.Logf("largest |float − exact| Rmin error: %.3g", maxErr)
}

// ratOracle evaluates and improves strategies of one Rmin query exactly,
// over the states fin marks finite.
type ratOracle struct {
	target  []bool
	fin     []bool
	choices [][]mdp.Choice
}

func newRatOracle(m *mdp.MDP, target []bool, vals []float64) *ratOracle {
	n := m.NumStates()
	o := &ratOracle{target: target, fin: make([]bool, n), choices: make([][]mdp.Choice, n)}
	for s := 0; s < n; s++ {
		o.fin[s] = !math.IsInf(vals[s], 1)
		o.choices[s] = m.Choices(mdp.StateID(s))
	}
	return o
}

// open reports whether s is a finite state whose value the strategy decides.
func (o *ratOracle) open(s int) bool { return o.fin[s] && !o.target[s] }

// q returns the exact value of choice c in state s under v, or nil when the
// choice can leave the finite states.
func (o *ratOracle) q(s, c int, v []*big.Rat) *big.Rat {
	ch := o.choices[s][c]
	sum := new(big.Rat).SetFloat64(ch.Reward)
	term := new(big.Rat)
	for _, tr := range ch.Transitions {
		if tr.P <= 0 {
			continue
		}
		if !o.fin[tr.To] {
			return nil
		}
		sum.Add(sum, term.Mul(new(big.Rat).SetFloat64(tr.P), v[tr.To]))
	}
	return sum
}

// improve switches each open state to a choice strictly better than its
// current one under v, the best such, and reports whether any state switched.
func (o *ratOracle) improve(st []int, v []*big.Rat) bool {
	changed := false
	for s := range o.fin {
		if !o.open(s) {
			continue
		}
		best := v[s]
		for c := range o.choices[s] {
			if q := o.q(s, c, v); q != nil && q.Cmp(best) < 0 {
				best, st[s], changed = q, c, true
			}
		}
	}
	return changed
}

// evaluate returns the exact value of strategy st: 0 on targets and, on the
// open states, the solution of V = r + P·V. It solves one strongly connected
// component of the strategy's chain at a time, successors first, by Gaussian
// elimination. ok is false when the strategy can leave the finite states or
// fails to reach the target almost surely (a singular component).
func (o *ratOracle) evaluate(st []int) (v []*big.Rat, ok bool) {
	n := len(o.fin)
	v = make([]*big.Rat, n)
	for s := range v {
		if o.fin[s] {
			v[s] = new(big.Rat)
		}
	}
	succ := func(s int) []mdp.Transition { return o.choices[s][st[s]].Transitions }
	for s := range o.fin {
		if !o.open(s) {
			continue
		}
		for _, tr := range succ(s) {
			if tr.P > 0 && !o.fin[tr.To] {
				return nil, false
			}
		}
	}
	// Tarjan's algorithm emits each component after every component it
	// reaches, so the values a component reads outside itself are final.
	index, low := make([]int, n), make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	next := 1
	ok = true
	var visit func(s int)
	visit = func(s int) {
		index[s], low[s] = next, next
		next++
		stack = append(stack, s)
		onStack[s] = true
		for _, tr := range succ(s) {
			u := int(tr.To)
			if tr.P <= 0 || !o.open(u) {
				continue
			}
			if index[u] == 0 {
				visit(u)
				low[s] = min(low[s], low[u])
			} else if onStack[u] {
				low[s] = min(low[s], index[u])
			}
		}
		if low[s] != index[s] {
			return
		}
		var comp []int
		for {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[u] = false
			comp = append(comp, u)
			if u == s {
				break
			}
		}
		if ok && !o.solveComponent(comp, st, v) {
			ok = false
		}
	}
	for s := range o.fin {
		if o.open(s) && index[s] == 0 {
			visit(s)
		}
	}
	return v, ok
}

// solveComponent writes the values of the states of comp, given final
// values for every state outside it. It reports false on a singular system.
func (o *ratOracle) solveComponent(comp, st []int, v []*big.Rat) bool {
	k := len(comp)
	pos := make(map[int]int, k)
	for i, s := range comp {
		pos[s] = i
	}
	// Row i: V_i − Σ_{j∈comp} p_ij V_j = r_i + Σ_{t∉comp} p_it V_t.
	a := make([][]*big.Rat, k)
	for i, s := range comp {
		row := make([]*big.Rat, k+1)
		for j := range row {
			row[j] = new(big.Rat)
		}
		row[i].SetInt64(1)
		ch := o.choices[s][st[s]]
		row[k].SetFloat64(ch.Reward)
		for _, tr := range ch.Transitions {
			if tr.P <= 0 {
				continue
			}
			p := new(big.Rat).SetFloat64(tr.P)
			if j, in := pos[int(tr.To)]; in {
				row[j].Sub(row[j], p)
			} else {
				row[k].Add(row[k], p.Mul(p, v[tr.To]))
			}
		}
		a[i] = row
	}
	tmp := new(big.Rat)
	for c := 0; c < k; c++ {
		p := c
		for p < k && a[p][c].Sign() == 0 {
			p++
		}
		if p == k {
			return false
		}
		a[c], a[p] = a[p], a[c]
		for r := 0; r < k; r++ {
			if r == c || a[r][c].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Quo(a[r][c], a[c][c])
			for j := c; j <= k; j++ {
				a[r][j].Sub(a[r][j], tmp.Mul(f, a[c][j]))
			}
		}
	}
	for i, s := range comp {
		v[s] = new(big.Rat).Quo(a[i][k], a[i][i])
	}
	return true
}
