// Package modelcheck statically verifies the well-formedness invariants
// that the synthesis framework's guarantees rest on. The reduction of
// Sec. VI-C (SMG → per-job MDP) and the CSR solver engine are only sound
// over models that are row-stochastic, dangling-free and label-closed, and
// the strategies they emit are only executable when total over every state
// a run can actually reach; none of that is enforced by Go's type system.
// This package checks each invariant over built artifacts — run it as
// `medalint -models` against the benchmark assays, from tests, or (behind
// the medacheck build tag) as library assertions on every synthesis.
//
// The checks are:
//
//	row-stochastic     every choice's probabilities lie in [0,1] and sum
//	                   to 1 within 1e-9
//	dangling-target    every transition targets an existing state
//	reverse-index      the CSR reverse-edge index the solvers walk agrees
//	                   exactly with the forward transition structure
//	predecessor-lists  the per-state predecessor lists change-driven
//	                   Gauss-Seidel re-dirties agree exactly with the
//	                   forward transitions
//	choice-partition   the deterministic/other partition the Bellman
//	                   backups walk covers every choice once, and gathers
//	                   only deterministic choices of the shared reward
//	strategy-totality  the strategy selects a valid choice at every state
//	                   reachable from the initial state under itself
//	hazard-closure     goal and hazard labels are disjoint and the hazard
//	                   set is closed under all transitions, so encoding
//	                   □¬hazard by making hazard states losing is sound
//
// Violations carry the state id, choice index and caller-supplied action
// id, so a bad choice in a generated model traces back to the microfluidic
// action that produced it.
package modelcheck

import (
	"fmt"
	"math"
	"slices"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/smg"
)

// ProbEps is the row-stochasticity tolerance: choice distributions must
// sum to 1 within this bound, matching the solver's convergence epsilon.
const ProbEps = 1e-9

// Violation is one invariant breach, located by state, choice and action.
type Violation struct {
	Check  string      // which invariant: "row-stochastic", "dangling-target", ...
	State  mdp.StateID // offending state, -1 when not state-specific
	Choice int         // choice index within the state, -1 when n/a
	Action int         // caller-supplied action id of that choice, -1 when n/a
	Detail string
}

// String formats the violation with its full location.
func (v Violation) String() string {
	loc := fmt.Sprintf("state %d", v.State)
	if v.Choice >= 0 {
		loc += fmt.Sprintf(" choice %d (action %d)", v.Choice, v.Action)
	}
	return fmt.Sprintf("%s: %s: %s", v.Check, loc, v.Detail)
}

// CheckMDP verifies row-stochasticity and dangling-target freedom over the
// model's choices: every choice has transitions, probabilities lie
// in [0,1] (within ProbEps) and sum to 1 within ProbEps, rewards are
// non-negative, and every target state exists.
func CheckMDP(m *mdp.MDP) []Violation {
	var vs []Violation
	n := m.NumStates()
	for s := 0; s < n; s++ {
		for ci, c := range m.Choices(mdp.StateID(s)) {
			v := func(check, format string, args ...interface{}) {
				vs = append(vs, Violation{Check: check, State: mdp.StateID(s), Choice: ci, Action: c.Action,
					Detail: fmt.Sprintf(format, args...)})
			}
			if len(c.Transitions) == 0 {
				v("row-stochastic", "choice has no transitions")
				continue
			}
			if c.Reward < 0 {
				v("row-stochastic", "negative reward %v", c.Reward)
			}
			total := 0.0
			for _, tr := range c.Transitions {
				if tr.To < 0 || int(tr.To) >= n {
					v("dangling-target", "transition targets out-of-range state %d (|S| = %d)", tr.To, n)
					continue
				}
				if tr.P < -ProbEps || tr.P > 1+ProbEps {
					v("row-stochastic", "probability %v outside [0,1]", tr.P)
				}
				total += tr.P
			}
			if !mdp.ApproxEqual(total, 1, ProbEps) {
				v("row-stochastic", "probabilities sum to %v (want 1 within %g)", total, ProbEps)
			}
		}
	}
	return vs
}

// CheckIndex verifies the solver index of a CSR view against the view's
// own forward transitions, as the solvers read it: ChoiceState, the
// reverse-edge index (every positive-probability edge s→t appears,
// deduplicated per choice, under t, and nothing else does), the
// predecessor lists and the choice partition.
func CheckIndex(g mdp.CSRView) []Violation {
	var vs []Violation
	n := g.NumStates
	for s := 0; s < n; s++ {
		for gi := g.StateOff[s]; gi < g.StateOff[s+1]; gi++ {
			if g.ChoiceState[gi] != int32(s) {
				vs = append(vs, Violation{Check: "reverse-index", State: mdp.StateID(s), Choice: int(gi - g.StateOff[s]), Action: int(g.Actions[gi]),
					Detail: fmt.Sprintf("ChoiceState maps global choice %d to state %d", gi, g.ChoiceState[gi])})
			}
		}
	}
	// Expected reverse index: per target, the set of global choices with a
	// positive-probability edge in, deduplicated.
	expect := make([]map[int32]bool, n)
	for t := range expect {
		expect[t] = make(map[int32]bool)
	}
	nc := len(g.Actions)
	for gi := 0; gi < nc; gi++ {
		for ti := g.ChoiceOff[gi]; ti < g.ChoiceOff[gi+1]; ti++ {
			if g.Probs[ti] > 0 {
				expect[g.Tos[ti]][int32(gi)] = true
			}
		}
	}
	for t := 0; t < n; t++ {
		got := g.RevChoice[g.RevOff[t]:g.RevOff[t+1]]
		seen := make(map[int32]bool, len(got))
		for _, gi := range got {
			if seen[gi] {
				vs = append(vs, Violation{Check: "reverse-index", State: mdp.StateID(t), Choice: -1, Action: -1,
					Detail: fmt.Sprintf("global choice %d listed twice under target %d", gi, t)})
			}
			seen[gi] = true
			if !expect[t][gi] {
				vs = append(vs, Violation{Check: "reverse-index", State: mdp.StateID(t), Choice: -1, Action: -1,
					Detail: fmt.Sprintf("reverse index lists choice %d under target %d without a positive forward edge", gi, t)})
			}
		}
		for gi := range expect[t] {
			if !seen[gi] {
				vs = append(vs, Violation{Check: "reverse-index", State: mdp.StateID(t), Choice: -1, Action: -1,
					Detail: fmt.Sprintf("positive edge from choice %d (state %d) missing under target %d", gi, g.ChoiceState[gi], t)})
			}
		}
	}
	vs = append(vs, checkPreds(g)...)
	return append(vs, checkPartition(g)...)
}

// checkPreds verifies the predecessor lists against the forward
// transitions: under each t, the states other than t that own a choice with
// a positive edge into t, ascending and once each.
func checkPreds(g mdp.CSRView) []Violation {
	n := g.NumStates
	if len(g.PredOff) != n+1 || g.PredOff[0] != 0 || int(g.PredOff[n]) != len(g.Preds) {
		return []Violation{{Check: "predecessor-lists", State: -1, Choice: -1, Action: -1,
			Detail: fmt.Sprintf("%d offsets over %d states do not span the %d predecessors", len(g.PredOff), n, len(g.Preds))}}
	}
	want := make([][]int32, n)
	for s := 0; s < n; s++ {
		for ti := g.ChoiceOff[g.StateOff[s]]; ti < g.ChoiceOff[g.StateOff[s+1]]; ti++ {
			t := g.Tos[ti]
			if w := want[t]; g.Probs[ti] > 0 && int(t) != s && (len(w) == 0 || w[len(w)-1] != int32(s)) {
				want[t] = append(w, int32(s))
			}
		}
	}
	var vs []Violation
	for t := 0; t < n; t++ {
		if g.PredOff[t] > g.PredOff[t+1] {
			vs = append(vs, Violation{Check: "predecessor-lists", State: mdp.StateID(t), Choice: -1, Action: -1,
				Detail: fmt.Sprintf("offsets decrease: %d to %d", g.PredOff[t], g.PredOff[t+1])})
			continue
		}
		if got := g.Preds[g.PredOff[t]:g.PredOff[t+1]]; !slices.Equal(got, want[t]) {
			vs = append(vs, Violation{Check: "predecessor-lists", State: mdp.StateID(t), Choice: -1, Action: -1,
				Detail: fmt.Sprintf("predecessors %v, transitions give %v", got, want[t])})
		}
	}
	return vs
}

// checkPartition verifies the choice partition of each state s. Part's
// slots before DetOff[s] must be the ids of some of s's choices, ascending;
// every other choice of s must fill the next gathered slot, counting down
// from the state's last slot, with its successor, and be one the backups
// may gather: one transition, with probability exactly 1, to another
// state, and reward bits DetReward[s]. A state that gathers any choice has
// no reward with the sign bit set, so no backup candidate of it is −0.
func checkPartition(g mdp.CSRView) []Violation {
	var vs []Violation
	for s := 0; s < g.NumStates; s++ {
		v := func(ci int32, format string, args ...interface{}) {
			choice, act := -1, -1
			if ci >= 0 {
				choice, act = int(ci-g.StateOff[s]), int(g.Actions[ci])
			}
			vs = append(vs, Violation{Check: "choice-partition", State: mdp.StateID(s), Choice: choice, Action: act,
				Detail: fmt.Sprintf(format, args...)})
		}
		lo, mid, hi := g.StateOff[s], g.DetOff[s], g.StateOff[s+1]
		if mid < lo || mid > hi {
			v(-1, "split point %d outside the choice slots [%d, %d]", mid, lo, hi)
			continue
		}
		oi, gi := lo, hi // next other slot, last gathered slot filled
		for ci := lo; ci < hi; ci++ {
			if oi < mid && g.Part[oi] == ci {
				oi++
				continue
			}
			if gi == mid {
				v(ci, "choice is neither gathered nor listed among the others")
				continue
			}
			gi--
			ti := g.ChoiceOff[ci]
			switch {
			case g.ChoiceOff[ci+1] != ti+1 || g.Probs[ti] != 1 || int(g.Tos[ti]) == s:
				v(ci, "gathered choice is not one transition with probability 1 to another state")
			case g.Part[gi] != g.Tos[ti]:
				v(ci, "gathered as successor %d, transition goes to %d", g.Part[gi], g.Tos[ti])
			case math.Float64bits(g.Rewards[ci]) != math.Float64bits(g.DetReward[s]):
				v(ci, "gathered with reward %v, choice has reward %v", g.DetReward[s], g.Rewards[ci])
			}
		}
		if oi != mid {
			v(-1, "other-choice slots %v are not this state's choice ids in ascending order", g.Part[lo:mid])
		}
		if gi != mid {
			v(-1, "%d gathered slots for %d gathered choices", hi-mid, hi-gi)
		}
		for ci := lo; ci < hi && mid < hi; ci++ {
			if math.Signbit(g.Rewards[ci]) {
				v(ci, "state gathers choices but this reward %v has the sign bit set", g.Rewards[ci])
			}
		}
	}
	return vs
}

// CheckStrategy verifies totality over reachable states: walking the MDP
// from init under the strategy, every encountered state that is neither a
// target, an avoid state, nor choiceless must have a valid selected
// choice. A -1 (or out-of-range) selection at a reachable state means the
// controller would reach a configuration with no action to issue.
func CheckStrategy(m *mdp.MDP, st mdp.Strategy, init mdp.StateID, target, avoid []bool) []Violation {
	var vs []Violation
	n := m.NumStates()
	if len(st) != n {
		return []Violation{{Check: "strategy-totality", State: -1, Choice: -1, Action: -1,
			Detail: fmt.Sprintf("strategy covers %d states, model has %d", len(st), n)}}
	}
	seen := make([]bool, n)
	queue := []mdp.StateID{init}
	seen[init] = true
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if target[s] || (avoid != nil && avoid[s]) {
			continue // runs end (or are forbidden) here; no action needed
		}
		choices := m.Choices(s)
		if len(choices) == 0 {
			continue
		}
		if st[s] < 0 || st[s] >= len(choices) {
			vs = append(vs, Violation{Check: "strategy-totality", State: s, Choice: st[s], Action: -1,
				Detail: fmt.Sprintf("reachable state has no selected choice (selection %d of %d choices)", st[s], len(choices))})
			continue
		}
		for _, tr := range choices[st[s]].Transitions {
			if tr.P > 0 && !seen[tr.To] {
				seen[tr.To] = true
				queue = append(queue, tr.To)
			}
		}
	}
	return vs
}

// CheckHazardClosure verifies that the hazard label is sound for the
// solver's □¬hazard encoding: no state is both goal and hazard, and the
// hazard set is closed — every transition of every choice of a hazard
// state stays inside the hazard set. (MaxReachProb pins hazard states to
// value 0 and ignores their choices; that is only equivalent to the
// safety-constrained query when no run can leave the hazard set again.)
func CheckHazardClosure(m *mdp.MDP, goal, hazard []bool) []Violation {
	var vs []Violation
	n := m.NumStates()
	for s := 0; s < n; s++ {
		if goal[s] && hazard[s] {
			vs = append(vs, Violation{Check: "hazard-closure", State: mdp.StateID(s), Choice: -1, Action: -1,
				Detail: "state is labeled both goal and hazard"})
		}
		if !hazard[s] {
			continue
		}
		for ci, c := range m.Choices(mdp.StateID(s)) {
			for _, tr := range c.Transitions {
				if tr.P > 0 && int(tr.To) < n && !hazard[tr.To] {
					vs = append(vs, Violation{Check: "hazard-closure", State: mdp.StateID(s), Choice: ci, Action: c.Action,
						Detail: fmt.Sprintf("hazard state can leave the hazard set (to state %d with p=%v)", tr.To, tr.P)})
				}
			}
		}
	}
	return vs
}

// CheckReduced runs every invariant over a reduced per-job model as built
// by smg.Induce, plus the reduction-specific frontier condition: every
// droplet rectangle lies within the job's hazard bounds, and no enabled
// choice's action moves a frontier rectangle outside them (the guard
// construction must have dropped such actions, making HazardSink
// unreachable and the frontier hazard-closed). A nil strategy skips the
// totality check.
func CheckReduced(model *smg.Model, st mdp.Strategy, bounds geom.Rect) []Violation {
	vs := CheckMDP(model.M)
	for _, v := range vs {
		if v.Check == "dangling-target" {
			return vs // index construction would index out of range
		}
	}
	vs = append(vs, CheckIndex(model.M.CSR())...)
	vs = append(vs, CheckHazardClosure(model.M, model.Goal, model.Hazard)...)
	if st != nil {
		vs = append(vs, CheckStrategy(model.M, st, model.Init, model.Goal, model.Hazard)...)
	}

	// Frontier hazard-closure over the droplet rectangles.
	for id := 0; id < model.NumPositions(); id++ {
		s := mdp.StateID(id)
		d, ok := model.RectOf(s)
		if !ok {
			continue
		}
		if smg.HazardLabel(d, bounds) {
			vs = append(vs, Violation{Check: "hazard-closure", State: s, Choice: -1, Action: -1,
				Detail: fmt.Sprintf("droplet rectangle %v lies outside the hazard bounds %v", d, bounds)})
			continue
		}
		for ci, c := range model.M.Choices(s) {
			if c.Action < 0 {
				continue // bookkeeping choice
			}
			if moved := action.Action(c.Action).Apply(d); !bounds.ContainsRect(moved) {
				vs = append(vs, Violation{Check: "hazard-closure", State: s, Choice: ci, Action: c.Action,
					Detail: fmt.Sprintf("enabled action moves frontier rectangle %v to %v, outside bounds %v", d, moved, bounds)})
			}
		}
	}

	// The sinks must be absorbing with probability exactly 1.
	for _, sink := range []mdp.StateID{model.GoalSink, model.HazardSink} {
		for ci, c := range model.M.Choices(sink) {
			for _, tr := range c.Transitions {
				if tr.To != sink || !mdp.IsOneProb(tr.P) {
					vs = append(vs, Violation{Check: "hazard-closure", State: sink, Choice: ci, Action: c.Action,
						Detail: fmt.Sprintf("sink is not absorbing (to %d with p=%v)", tr.To, tr.P)})
				}
			}
		}
	}
	if !model.Goal[model.GoalSink] {
		vs = append(vs, Violation{Check: "hazard-closure", State: model.GoalSink, Choice: -1, Action: -1,
			Detail: "goal sink is not goal-labeled"})
	}
	if !model.Hazard[model.HazardSink] {
		vs = append(vs, Violation{Check: "hazard-closure", State: model.HazardSink, Choice: -1, Action: -1,
			Detail: "hazard sink is not hazard-labeled"})
	}
	return vs
}

// CheckValues verifies a solved value vector is well-formed for a
// reachability query: probabilities in [0,1] (within ProbEps), no NaNs.
// Reward queries admit +Inf (no almost-sure strategy) but never NaN.
func CheckValues(values []float64, probability bool) []Violation {
	var vs []Violation
	for s, v := range values {
		switch {
		case math.IsNaN(v):
			vs = append(vs, Violation{Check: "row-stochastic", State: mdp.StateID(s), Choice: -1, Action: -1,
				Detail: "solved value is NaN"})
		case probability && (v < -ProbEps || v > 1+ProbEps):
			vs = append(vs, Violation{Check: "row-stochastic", State: mdp.StateID(s), Choice: -1, Action: -1,
				Detail: fmt.Sprintf("solved probability %v outside [0,1]", v)})
		}
	}
	return vs
}
