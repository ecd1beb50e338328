// Package mdp provides an explicit-state Markov decision process engine with
// the two solvers the paper's synthesis framework obtains from PRISM-games
// (Sec. VI-C):
//
//   - maximum reachability probability, Pmax=? [◇goal] (with an optional
//     safety constraint □¬hazard folded in by making hazard states losing),
//     solved by value iteration from below, and
//   - minimum expected total reward to reach a goal, Rmin=? [◇goal], the
//     stochastic-shortest-path problem, solved by qualitative almost-sure
//     reachability analysis (Prob1E) followed by value iteration. On a
//     deterministic model with unit costs, one backward BFS gives both the
//     almost-sure set and the exact values, and value iteration starts from
//     them.
//
// After the paper's partial-order reduction fixes the health matrix, the
// per-routing-job model is exactly an MDP, so these two solvers cover every
// synthesis query the framework issues. Both return memoryless deterministic
// strategies, which are optimal for these objectives.
package mdp

import (
	"errors"
	"fmt"
	"math"

	"meda/internal/telemetry"
)

// StateID indexes a state of the MDP.
type StateID int

// Transition is one probabilistic edge of a choice.
type Transition struct {
	To StateID
	P  float64
}

// Choice is one nondeterministic action available in a state: an opaque
// caller-supplied action identifier, an action reward (cost), and a
// probability distribution over successor states.
type Choice struct {
	Action      int
	Reward      float64
	Transitions []Transition
}

// MDP is an explicit-state Markov decision process under construction or
// analysis. The zero value is an empty MDP ready for AddState. Models come
// in two storage modes: the classic AddState/AddChoice API grows a
// list-backed graph, while Builder.Build returns a model backed directly by
// the builder's CSR slabs (flat != nil). Flat models are immutable and share
// solver scratch with their Builder, so they must not be solved
// concurrently; list-backed models flatten fresh per solve and may be.
type MDP struct {
	choices [][]Choice
	numTr   int
	flat    *csr // set for Builder-built models; nil for list-backed ones
}

// New returns an empty MDP.
func New() *MDP { return &MDP{} }

// AddState appends a fresh state and returns its id.
func (m *MDP) AddState() StateID {
	m.mutable()
	m.choices = append(m.choices, nil)
	return StateID(len(m.choices) - 1)
}

// AddStates appends n fresh states and returns the id of the first.
func (m *MDP) AddStates(n int) StateID {
	m.mutable()
	first := StateID(len(m.choices))
	for i := 0; i < n; i++ {
		m.choices = append(m.choices, nil)
	}
	return first
}

// AddChoice attaches a choice to a state. Transition probabilities are the
// caller's responsibility until Validate is called.
func (m *MDP) AddChoice(s StateID, action int, reward float64, trs []Transition) {
	m.mutable()
	m.choices[s] = append(m.choices[s], Choice{Action: action, Reward: reward, Transitions: trs})
	m.numTr += len(trs)
}

func (m *MDP) mutable() {
	if m.flat != nil {
		panic("mdp: cannot mutate a Builder-built model; use Builder.Reset and rebuild")
	}
}

// NumStates returns |S|.
func (m *MDP) NumStates() int {
	if m.flat != nil {
		return m.flat.n
	}
	return len(m.choices)
}

// NumChoices returns the total number of state-action choices, the quantity
// PRISM reports as "choices".
func (m *MDP) NumChoices() int {
	if m.flat != nil {
		return len(m.flat.actions)
	}
	n := 0
	for _, cs := range m.choices {
		n += len(cs)
	}
	return n
}

// NumTransitions returns the total number of probabilistic transitions, the
// quantity PRISM reports as "transitions".
func (m *MDP) NumTransitions() int { return m.numTr }

// Choices returns the choices of a state. For list-backed models this is the
// shared underlying slice (do not mutate); for Builder-built models the
// choices are materialized fresh from the CSR slabs on every call — fine for
// inspection and tests, but hot paths should use numChoicesOf/choiceAction.
func (m *MDP) Choices(s StateID) []Choice {
	if g := m.flat; g != nil {
		lo, hi := g.stateOff[s], g.stateOff[s+1]
		if lo == hi {
			return nil
		}
		out := make([]Choice, 0, hi-lo)
		for ci := lo; ci < hi; ci++ {
			trs := make([]Transition, 0, g.choiceOff[ci+1]-g.choiceOff[ci])
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				trs = append(trs, Transition{To: StateID(g.tos[ti]), P: g.probs[ti]})
			}
			out = append(out, Choice{Action: int(g.actions[ci]), Reward: g.rewards[ci], Transitions: trs})
		}
		return out
	}
	return m.choices[s]
}

// numChoicesOf returns the number of choices of one state without
// materializing them.
func (m *MDP) numChoicesOf(s StateID) int {
	if g := m.flat; g != nil {
		return int(g.stateOff[s+1] - g.stateOff[s])
	}
	return len(m.choices[s])
}

// choiceAction returns the caller-supplied action id of choice idx of state
// s without materializing the choice list.
func (m *MDP) choiceAction(s StateID, idx int) int {
	if g := m.flat; g != nil {
		return int(g.actions[int(g.stateOff[s])+idx])
	}
	return m.choices[s][idx].Action
}

// Validate checks structural sanity: transition targets in range,
// probabilities in [0,1] summing to 1 per choice (within eps), non-negative
// rewards. Errors name the state id, the choice index, and the
// caller-supplied action id, so a bad choice in a generated model can be
// traced back to the microfluidic action that produced it. Both storage
// modes validate over the same CSR walk.
func (m *MDP) Validate() error {
	const eps = 1e-9
	g := m.flatten()
	for s := 0; s < g.n; s++ {
		for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
			idx := int(ci - g.stateOff[s])
			act := int(g.actions[ci])
			if g.choiceOff[ci] == g.choiceOff[ci+1] {
				return fmt.Errorf("mdp: state %d choice %d (action %d) has no transitions", s, idx, act)
			}
			if g.rewards[ci] < 0 {
				return fmt.Errorf("mdp: state %d choice %d (action %d) has negative reward %v", s, idx, act, g.rewards[ci])
			}
			total := 0.0
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				if g.tos[ti] < 0 || int(g.tos[ti]) >= g.n {
					return fmt.Errorf("mdp: state %d choice %d (action %d) targets out-of-range state %d", s, idx, act, g.tos[ti])
				}
				if g.probs[ti] < -eps || g.probs[ti] > 1+eps {
					return fmt.Errorf("mdp: state %d choice %d (action %d) has probability %v", s, idx, act, g.probs[ti])
				}
				total += g.probs[ti]
			}
			if math.Abs(total-1) > 1e-6 {
				return fmt.Errorf("mdp: state %d choice %d (action %d) probabilities sum to %v", s, idx, act, total)
			}
		}
	}
	return nil
}

// Strategy is a memoryless deterministic strategy: for each state, the index
// into Choices(s) of the selected choice, or -1 where no choice is selected
// (target, avoided, or unreachable states).
type Strategy []int

// Action returns the caller-supplied action id selected in state s, or
// (0, false) if the strategy selects nothing there.
func (st Strategy) Action(m *MDP, s StateID) (int, bool) {
	if int(s) >= len(st) || st[s] < 0 {
		return 0, false
	}
	return m.choiceAction(s, st[s]), true
}

// SolverMethod selects the value-iteration flavor.
type SolverMethod int

const (
	// GaussSeidel updates values in place with alternating-direction
	// sweeps, typically converging in the fewest wall-clock cycles; this is
	// the default.
	GaussSeidel SolverMethod = iota
	// Jacobi performs synchronous sweeps from the previous iterate; it is
	// the differential reference for Gauss-Seidel.
	Jacobi
)

// String names the method.
func (m SolverMethod) String() string {
	switch m {
	case Jacobi:
		return "jacobi"
	default:
		return "gauss-seidel"
	}
}

// SolveOptions tunes the iterative solvers.
type SolveOptions struct {
	Method  SolverMethod
	Eps     float64 // convergence threshold on the max-norm; default 1e-9
	MaxIter int     // iteration cap; default 1e6
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Eps <= 0 {
		o.Eps = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1_000_000
	}
	return o
}

// SeedsDistances reports whether an Rmin solve of a deterministic model
// with unit costs, whose largest finite distance is dmax, is seeded with
// its shortest-path distances (and so ends after one confirming sweep):
// the values are integers, so every change is at least 1 and a residual
// below Eps ≤ 1 means the fixpoint, which cold VI reaches within dmax+2
// sweeps.
func (o SolveOptions) SeedsDistances(dmax int) bool {
	o = o.withDefaults()
	return o.Eps <= 1 && o.MaxIter >= dmax+2
}

// Result carries a solver outcome. Iterations is the number of value-
// iteration sweeps run: 1 for an Rmin solve seeded with shortest-path
// distances, whose one sweep confirms the fixpoint.
type Result struct {
	Values     []float64
	Strategy   Strategy
	Iterations int
}

// ErrNoConvergence is returned when value iteration hits the iteration cap.
// Solvers wrap it in a *ConvergenceError naming the offending state; match
// with errors.Is / errors.As.
var ErrNoConvergence = errors.New("mdp: value iteration did not converge")

// ConvergenceError reports where value iteration was still changing when it
// exhausted MaxIter: the state with the largest residual in the final sweep,
// the caller-supplied action id of that state's first choice (-1 when the
// state has none), and the residual itself.
type ConvergenceError struct {
	State      StateID
	Action     int
	Delta      float64
	Iterations int
}

// Error implements error.
func (e *ConvergenceError) Error() string {
	return fmt.Sprintf("mdp: value iteration did not converge after %d iterations (state %d, action %d, residual %g)",
		e.Iterations, e.State, e.Action, e.Delta)
}

// Unwrap makes errors.Is(err, ErrNoConvergence) hold.
func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// MaxReachProb computes Pmax(s ⊨ ◇target) for every state, treating avoid
// states as losing (their value is pinned to 0 and their choices ignored),
// which encodes Pmax=?[□¬avoid ∧ ◇target] for label-closed avoid sets. The
// returned strategy maximizes the probability.
func (m *MDP) MaxReachProb(target, avoid []bool, opt SolveOptions) (Result, error) {
	sp := telemetry.StartSpan("mdp.max_reach_prob")
	defer sp.End()
	return m.maxReachProb(target, avoid, opt, (*csr).iterate)
}

// viFunc runs value iteration over g to convergence (see csr.iterate, the
// solvers' only one). The solve bodies take it as a parameter so that the
// exactness tests can run them over a full-sweep reference.
type viFunc func(g *csr, vals []float64, frozen []bool, opt SolveOptions, bellman backupFunc) (int, error)

func (m *MDP) maxReachProb(target, avoid []bool, opt SolveOptions, vi viFunc) (Result, error) {
	assertValid(m)
	opt = opt.withDefaults()
	n := m.NumStates()
	if len(target) != n || (avoid != nil && len(avoid) != n) {
		return Result{}, errors.New("mdp: label vector length mismatch")
	}
	g := m.flatten()
	vals := make([]float64, n)
	frozen := growB(g.scrFrozen, n)
	g.scrFrozen = frozen
	for s := 0; s < n; s++ {
		if target[s] && (avoid == nil || !avoid[s]) {
			vals[s] = 1
		}
		frozen[s] = target[s] || (avoid != nil && avoid[s]) || g.stateOff[s] == g.stateOff[s+1]
	}
	g.selfLoopInv()
	iters, err := vi(g, vals, frozen, opt, (*csr).bellmanMaxSL)
	if err != nil {
		return Result{}, err
	}
	// Extract an optimal *proper* strategy. Picking any value-maximizing
	// choice is not enough for reachability: two value-1 states can
	// maximize by cycling between each other forever. Build the policy
	// backward from the target instead — a state adopts a maximizing
	// choice only once that choice has a positive-probability transition
	// to an already-resolved state, so every step makes progress. The
	// resolution front is propagated over the reverse-edge index: a state
	// is (re)examined only when one of its successors resolves, instead of
	// rescanning all states to fixpoint. selfLoopInv built the index.
	strat := make(Strategy, n)
	for s := 0; s < n; s++ {
		strat[s] = -1
	}
	done := growB(g.scrInR, n)
	g.scrInR = done
	queue := growI(g.scrQueue, n)[:0]
	for s := 0; s < n; s++ {
		done[s] = target[s] && (avoid == nil || !avoid[s])
		if done[s] {
			queue = append(queue, int32(s))
		}
	}
	// resolve adopts the first maximizing choice of s with a resolved
	// successor, reporting whether s became resolved.
	resolve := func(s int) bool {
		for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
			v := 0.0
			progress := false
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				v += g.probs[ti] * vals[g.tos[ti]]
				if g.probs[ti] > 0 && done[g.tos[ti]] {
					progress = true
				}
			}
			if progress && v >= vals[s]-1e-9 {
				strat[s] = int(ci - g.stateOff[s])
				return true
			}
		}
		return false
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for ri := g.revOff[t]; ri < g.revOff[t+1]; ri++ {
			s := int(g.choiceState[g.revChoice[ri]])
			if done[s] || frozen[s] || IsZero(vals[s]) {
				continue
			}
			if resolve(s) {
				done[s] = true
				queue = append(queue, int32(s))
			}
		}
	}
	// States with Pmax = 0 get an arbitrary (first) choice so callers can
	// still walk the policy; it cannot matter.
	for s := 0; s < n; s++ {
		if strat[s] == -1 && !frozen[s] && g.stateOff[s] < g.stateOff[s+1] {
			strat[s] = 0
		}
	}
	return Result{Values: vals, Strategy: strat, Iterations: iters}, nil
}

// Prob1E returns the set of states from which some strategy reaches a target
// state with probability 1 while never entering an avoid state. This is the
// standard qualitative algorithm (greatest fixpoint over a reach-closure),
// and it determines where Rmin=?[◇target] is finite. The fixpoint runs over
// the CSR flattening with a reverse-edge worklist (see csr.go); the internal
// pass returns solver scratch, so this copies it for the caller.
func (m *MDP) Prob1E(target, avoid []bool) []bool {
	res := m.flatten().prob1E(target, avoid)
	out := make([]bool, len(res))
	copy(out, res)
	return out
}

// MinExpectedReward computes Rmin(s ⊨ ◇target): the minimum expected
// accumulated choice reward until reaching a target state, with avoid states
// forbidden. States from which no strategy reaches the target almost surely
// (while avoiding) get +Inf. The returned strategy attains the minimum.
func (m *MDP) MinExpectedReward(target, avoid []bool, opt SolveOptions) (Result, error) {
	sp := telemetry.StartSpan("mdp.min_expected_reward")
	defer sp.End()
	return m.minExpectedReward(target, avoid, opt, (*csr).iterate)
}

func (m *MDP) minExpectedReward(target, avoid []bool, opt SolveOptions, vi viFunc) (Result, error) {
	assertValid(m)
	opt = opt.withDefaults()
	n := m.NumStates()
	if len(target) != n || (avoid != nil && len(avoid) != n) {
		return Result{}, errors.New("mdp: label vector length mismatch")
	}
	g := m.flatten()
	vals := make([]float64, n)
	// A deterministic model with unit costs is solved exactly by one BFS.
	// Its distances seed value iteration only where cold VI would provably
	// end at the same bits (SeedsDistances). The seeded sweep then confirms
	// the fixpoint and changes nothing.
	as, dmax := g.unitDistances(target, avoid, vals)
	seeded := as != nil && opt.SeedsDistances(dmax)
	if as == nil {
		as = g.prob1E(target, avoid)
	}
	frozen := growB(g.scrFrozen, n)
	g.scrFrozen = frozen
	for s := 0; s < n; s++ {
		switch {
		case !as[s]:
			vals[s] = math.Inf(1)
		case !seeded:
			vals[s] = 0
		}
		frozen[s] = target[s] || !as[s] || g.stateOff[s] == g.stateOff[s+1]
	}
	if seeded {
		telSeeded.Inc()
	}
	g.selfLoopInv()
	iters, err := vi(g, vals, frozen, opt, (*csr).bellmanMinSL)
	if err != nil {
		return Result{}, err
	}
	strat := make(Strategy, n)
	for s := 0; s < n; s++ {
		strat[s] = -1
		if frozen[s] {
			continue
		}
		best, bi := math.Inf(1), -1
		for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
			v := g.rewards[ci]
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				if p := g.probs[ti]; p > 0 {
					v += p * vals[g.tos[ti]]
				}
			}
			if v < best-1e-12 {
				best, bi = v, int(ci-g.stateOff[s])
			}
		}
		strat[s] = bi
	}
	return Result{Values: vals, Strategy: strat, Iterations: iters}, nil
}
