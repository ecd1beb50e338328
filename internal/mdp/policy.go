// Exact policy evaluation: given a memoryless strategy, the MDP collapses
// to a Markov chain whose hitting probabilities and expected rewards are
// computed by the same iterative machinery as the optimization — used to
// audit synthesized strategies ("does the extracted policy really achieve
// the reported value?") and to compare hand-written heuristics against the
// optimum. Both evaluate over the model's CSR slabs.
package mdp

import (
	"errors"
	"math"
)

// EvaluatePolicyReward computes the expected accumulated reward until
// reaching a target state when every state follows the fixed strategy.
// States where the strategy selects nothing (or whose policy walks into a
// dead end) evaluate to +Inf unless they are targets.
func (m *MDP) EvaluatePolicyReward(st Strategy, target []bool, opt SolveOptions) ([]float64, error) {
	opt = opt.withDefaults()
	n := m.NumStates()
	if len(target) != n || len(st) != n {
		return nil, errors.New("mdp: vector length mismatch")
	}
	g := m.g
	// choice[s] is the global CSR choice id selected in s, or -1.
	choice := make([]int32, n)
	for s := 0; s < n; s++ {
		choice[s] = -1
		if st[s] >= 0 && int32(st[s]) < g.stateOff[s+1]-g.stateOff[s] {
			choice[s] = g.stateOff[s] + int32(st[s])
		}
	}
	// Almost-sure reachability under the fixed policy: greatest fixpoint
	// restricted to the policy's single choice per state.
	as := make([]bool, n)
	for s := 0; s < n; s++ {
		as[s] = true
	}
	tmp := make([]bool, n)
	for {
		for s := 0; s < n; s++ {
			tmp[s] = as[s] && target[s]
		}
		for changed := true; changed; {
			changed = false
			for s := 0; s < n; s++ {
				if !as[s] || tmp[s] || choice[s] < 0 {
					continue
				}
				ci := choice[s]
				stays, hits := true, false
				for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
					if IsZeroProb(g.probs[ti]) {
						continue
					}
					if !as[g.tos[ti]] {
						stays = false
						break
					}
					if tmp[g.tos[ti]] {
						hits = true
					}
				}
				if stays && hits {
					tmp[s] = true
					changed = true
				}
			}
		}
		same := true
		for s := 0; s < n; s++ {
			if as[s] != tmp[s] {
				same = false
			}
			as[s] = tmp[s]
		}
		if same {
			break
		}
	}

	vals := make([]float64, n)
	for s := 0; s < n; s++ {
		if !as[s] {
			vals[s] = math.Inf(1)
		}
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		delta := 0.0
		for s := 0; s < n; s++ {
			if target[s] || !as[s] || choice[s] < 0 {
				continue
			}
			ci := choice[s]
			v := g.rewards[ci]
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				if IsZeroProb(g.probs[ti]) {
					continue
				}
				v += g.probs[ti] * vals[g.tos[ti]]
			}
			if d := math.Abs(v - vals[s]); d > delta {
				delta = d
			}
			vals[s] = v
		}
		if delta < opt.Eps {
			return vals, nil
		}
	}
	return nil, ErrNoConvergence
}

// EvaluatePolicyReach computes the probability of reaching a target state
// under the fixed strategy, with avoid states losing.
func (m *MDP) EvaluatePolicyReach(st Strategy, target, avoid []bool, opt SolveOptions) ([]float64, error) {
	opt = opt.withDefaults()
	n := m.NumStates()
	if len(target) != n || len(st) != n || (avoid != nil && len(avoid) != n) {
		return nil, errors.New("mdp: vector length mismatch")
	}
	g := m.g
	vals := make([]float64, n)
	for s := 0; s < n; s++ {
		if target[s] && (avoid == nil || !avoid[s]) {
			vals[s] = 1
		}
	}
	frozen := func(s int) bool {
		return target[s] || (avoid != nil && avoid[s]) ||
			st[s] < 0 || int32(st[s]) >= g.stateOff[s+1]-g.stateOff[s]
	}
	for iter := 0; iter < opt.MaxIter; iter++ {
		delta := 0.0
		for s := 0; s < n; s++ {
			if frozen(s) {
				continue
			}
			ci := g.stateOff[s] + int32(st[s])
			v := 0.0
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				v += g.probs[ti] * vals[g.tos[ti]]
			}
			if d := math.Abs(v - vals[s]); d > delta {
				delta = d
			}
			vals[s] = v
		}
		if delta < opt.Eps {
			return vals, nil
		}
	}
	return nil, ErrNoConvergence
}
