// Interval iteration for maximum reachability probabilities. Plain value
// iteration converges to Pmax from below and stops on a small difference
// between sweeps — which can under-approximate badly on slowly contracting
// models. Interval iteration (Haddad & Monmege, 2014) additionally iterates
// an upper bound from above; when the two meet within ε the result is
// *certified* to ε. The routing models here contract quickly, so ordinary
// value iteration is the default; IntervalMaxReachProb exists to verify it.
package mdp

import (
	"errors"
	"math"
)

// IntervalResult carries certified bounds on Pmax per state.
type IntervalResult struct {
	Lower      []float64
	Upper      []float64
	Iterations int
}

// Width returns the largest gap upper−lower over all states.
func (r IntervalResult) Width() float64 {
	w := 0.0
	for i := range r.Lower {
		if d := r.Upper[i] - r.Lower[i]; d > w {
			w = d
		}
	}
	return w
}

// IntervalMaxReachProb computes certified bounds on Pmax(◇target) with
// avoid states losing, by iterating a lower bound from 0 and an upper bound
// from 1. To guarantee the upper bound converges to the true value (and not
// to a greater fixpoint), states that cannot reach the target at all are
// detected graph-theoretically first and pinned to 0.
func (m *MDP) IntervalMaxReachProb(target, avoid []bool, opt SolveOptions) (IntervalResult, error) {
	opt = opt.withDefaults()
	n := m.NumStates()
	if len(target) != n || (avoid != nil && len(avoid) != n) {
		return IntervalResult{}, errors.New("mdp: label vector length mismatch")
	}
	blocked := func(s int) bool { return avoid != nil && avoid[s] }
	g := m.g

	// canReach: states with some path to a target state avoiding `avoid`.
	canReach := make([]bool, n)
	for s := 0; s < n; s++ {
		canReach[s] = target[s] && !blocked(s)
	}
	for changed := true; changed; {
		changed = false
		for s := 0; s < n; s++ {
			if canReach[s] || blocked(s) {
				continue
			}
		scan:
			for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
				for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
					if g.probs[ti] > 0 && canReach[g.tos[ti]] {
						canReach[s] = true
						changed = true
						break scan
					}
				}
			}
		}
	}

	lo := make([]float64, n)
	hi := make([]float64, n)
	for s := 0; s < n; s++ {
		switch {
		case target[s] && !blocked(s):
			lo[s], hi[s] = 1, 1
		case !canReach[s]:
			lo[s], hi[s] = 0, 0
		default:
			lo[s], hi[s] = 0, 1
		}
	}
	frozen := func(s int) bool {
		return (target[s] && !blocked(s)) || !canReach[s] || g.stateOff[s] == g.stateOff[s+1]
	}
	iters := 0
	for ; iters < opt.MaxIter; iters++ {
		width := 0.0
		for s := 0; s < n; s++ {
			if frozen(s) {
				continue
			}
			bestLo, bestHi := 0.0, 0.0
			for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
				vLo, vHi := 0.0, 0.0
				pure := true
				for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
					vLo += g.probs[ti] * lo[g.tos[ti]]
					vHi += g.probs[ti] * hi[g.tos[ti]]
					if g.probs[ti] > 0 && int(g.tos[ti]) != s {
						pure = false
					}
				}
				if vLo > bestLo {
					bestLo = vLo
				}
				// A pure self-loop choice contributes its own value and
				// can never improve Pmax; excluding it from the upper
				// bound removes the trivial end component it forms.
				if !pure && vHi > bestHi {
					bestHi = vHi
				}
			}
			lo[s] = bestLo
			// The upper bound must never rise (monotone from above).
			if bestHi < hi[s] {
				hi[s] = bestHi
			}
			if d := hi[s] - lo[s]; d > width {
				width = d
			}
		}
		if width < opt.Eps {
			iters++
			break
		}
	}
	if iters >= opt.MaxIter {
		return IntervalResult{}, ErrNoConvergence
	}
	return IntervalResult{Lower: lo, Upper: hi, Iterations: iters}, nil
}

// CertifyMaxReachProb runs interval iteration and checks that a previously
// computed value vector lies within the certified bounds (± slack); it
// returns the worst violation found, 0 when fully certified.
func (m *MDP) CertifyMaxReachProb(values []float64, target, avoid []bool, opt SolveOptions) (float64, error) {
	res, err := m.IntervalMaxReachProb(target, avoid, opt)
	if err != nil {
		return math.Inf(1), err
	}
	worst := 0.0
	for s := range values {
		if d := res.Lower[s] - values[s]; d > worst {
			worst = d
		}
		if d := values[s] - res.Upper[s]; d > worst {
			worst = d
		}
	}
	return worst, nil
}
