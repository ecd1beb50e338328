// Compressed-sparse-row storage of the MDP. A model is five contiguous
// arrays (state → choice offsets, choice → transition offsets, per-choice
// action/reward, per-transition successor/probability), written by a
// Builder and read in place by the solvers, so a Bellman backup is two
// tight index-range loops over sequential memory.
//
// The same layout carries a reverse-edge index (successor → incoming
// choices), which turns the qualitative Prob1E pass from repeated forward
// scans into a worklist propagation. Folded into per-state predecessor
// lists, it also drives the change-driven Gauss-Seidel sweeps: a state is
// backed up again only after a successor's value changed. The Bellman
// backups take a state's deterministic choices as one min (max) over their
// successors' values and walk the transitions of the others. One index
// pass builds all of this once per model. Gauss-Seidel, the
// default solver, alternates sweep direction each iteration so value
// information propagates end to end regardless of how state ids are ordered
// relative to the goal; Jacobi sweeps from the previous iterate and serves
// as its differential reference.
package mdp

import (
	"math"
	"time"
)

// csr is the stored model. Offsets are int32: routing models have well
// under 2^31 choices/transitions, and the narrower indices halve the memory
// traffic of a sweep.
type csr struct {
	n         int       // number of states
	stateOff  []int32   // len n+1: choices of state s are [stateOff[s], stateOff[s+1])
	choiceOff []int32   // len numChoices+1: transitions of choice c are [choiceOff[c], choiceOff[c+1])
	actions   []int32   // per choice: caller-supplied action id
	rewards   []float64 // per choice
	tos       []int32   // per transition: successor state
	probs     []float64 // per transition

	// The solver index: everything the solvers read besides the forward
	// slabs. It depends only on the model structure, so index() builds it
	// once per model, in one counting and one fill sweep over the
	// transitions, and Builder.Reset recycles the slabs in place.
	indexed bool
	// Reverse-edge index over positive-probability transitions: revChoice
	// lists the (global) choice ids with an incoming edge to state t in
	// [revOff[t], revOff[t+1]), once each and ascending; choiceState maps a
	// global choice id back to its owning state.
	revOff      []int32
	revChoice   []int32
	choiceState []int32
	// Per-choice self-loop factor 1/(1-q) for the self-loop-eliminated
	// backups, with q the choice's self-loop mass; 0 marks a pure
	// self-loop choice, which those backups skip.
	slInv []float64
	// Per-state predecessors for the change-driven Gauss-Seidel sweeps:
	// preds[predOff[t]:predOff[t+1]] lists, once each and in ascending
	// order, the states other than t that own a choice with a
	// positive-probability edge into t — the states whose
	// self-loop-eliminated backups read t's value. It is the reverse index
	// folded from choices to states, with self-loops dropped.
	predOff []int32
	preds   []int32
	// The deterministic/other partition of each state's choices, which the
	// backups walk instead of the choices themselves. Of the slots
	// [stateOff[s], stateOff[s+1]) of part, [stateOff[s], detOff[s]) hold
	// the global ids of the state's other choices, in order, and
	// [detOff[s], stateOff[s+1]) the successors of its gathered choices —
	// one transition, p exactly 1, to another state, reward bits
	// detReward[s] — in reverse order.
	detOff    []int32
	detReward []float64
	part      []int32

	// Solver scratch, grown in place and reused across solves so a
	// Builder-recycled model pays no per-solve allocations for it. The
	// slabs are private to one solve at a time: a model shares them with
	// its Builder, so it must not be solved concurrently.
	scrDst    []float64 // jacobi ping-pong buffer
	scrFrozen []bool
	scrInU    []bool  // prob1E: candidate set U
	scrInR    []bool  // prob1E: reach closure R
	scrBad    []bool  // prob1E: choices with a successor outside U
	scrQueue  []int32 // index's dedup marks; worklist of prob1E and strategy extraction
	scrDirty  []bool  // gauss-seidel: states whose backup inputs changed
}

// growF, growB and growI resize a scratch slab to n elements, reusing the
// backing array when it is large enough. Contents are unspecified; callers
// initialize what they read.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growI(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// index builds the solver index in two sweeps over the transitions. The
// counting sweep fills choiceState, slInv and the partition, and counts
// each state's reverse-index entries and predecessors; the fill sweep
// writes revChoice and preds into slabs sized exactly from those counts.
// Both sweeps visit the choices in order, so one per-state mark — the last
// choice with an edge into t — deduplicates both: a repeated (choice,
// successor) pair finds its own choice there, and a repeated predecessor
// an earlier choice of its own state, as a state's choices are contiguous.
// Idempotent.
//
// A choice is gathered when it is deterministic — one transition, p
// exactly 1, to another state — and its reward has the bits of the state's
// first deterministic choice. The counting sweep writes the ids of the
// other choices from the front of the state's part slots and the
// successors of the gathered ones from the back. A state with a reward
// whose sign bit is set gathers nothing (see the backups below).
func (g *csr) index() {
	if g.indexed {
		return
	}
	n, nc := g.n, len(g.actions)
	stateOff, choiceOff, tos, probs, rewards := g.stateOff, g.choiceOff, g.tos, g.probs, g.rewards
	choiceState := growI(g.choiceState, nc)
	inv := growF(g.slInv, nc)
	part := growI(g.part, nc)
	detOff := growI(g.detOff, n)
	detReward := growF(g.detReward, n)
	revOff := growI(g.revOff, n+1)
	predOff := growI(g.predOff, n+1)
	for i := range revOff {
		revOff[i], predOff[i] = 0, 0
	}
	mark := growI(g.scrQueue, n)
	var revChoice, preds []int32
	for fill := false; ; fill = true {
		for i := range mark {
			mark[i] = -1
		}
		for s := 0; s < n; s++ {
			lo, hi := stateOff[s], stateOff[s+1]
			front, back := lo, hi // part cursors: other choices, gathered successors
			shared, signed := uint64(0), false
			for ci := lo; ci < hi; ci++ {
				q := 0.0
				for ti := choiceOff[ci]; ti < choiceOff[ci+1]; ti++ {
					if probs[ti] <= 0 {
						continue
					}
					t := tos[ti]
					if int(t) == s {
						q += probs[ti]
					}
					if mark[t] == ci {
						continue
					}
					pred := int(t) != s && mark[t] < lo
					mark[t] = ci
					if !fill {
						revOff[t+1]++
						if pred {
							predOff[t+1]++
						}
						continue
					}
					revChoice[revOff[t]] = ci
					revOff[t]++
					if pred {
						preds[predOff[t]] = int32(s)
						predOff[t]++
					}
				}
				if fill {
					continue
				}
				choiceState[ci] = int32(s)
				switch {
				case q >= 1-1e-12:
					inv[ci] = 0
				case q > 0:
					inv[ci] = 1 / (1 - q)
				default:
					inv[ci] = 1
				}
				r := math.Float64bits(rewards[ci])
				signed = signed || math.Signbit(rewards[ci])
				ti := choiceOff[ci]
				if choiceOff[ci+1] == ti+1 && probs[ti] == 1 && int(tos[ti]) != s && (back == hi || r == shared) {
					shared = r
					back--
					part[back] = tos[ti]
				} else {
					part[front] = ci
					front++
				}
			}
			if fill {
				continue
			}
			if signed {
				for ci := lo; ci < hi; ci++ {
					part[ci] = ci
				}
				back, shared = hi, 0
			}
			detOff[s], detReward[s] = back, math.Float64frombits(shared)
		}
		if fill {
			break
		}
		for t := 0; t < n; t++ {
			revOff[t+1] += revOff[t]
			predOff[t+1] += predOff[t]
		}
		revChoice = growI(g.revChoice, int(revOff[n]))
		preds = growI(g.preds, int(predOff[n]))
	}
	// The fill advanced each start offset to the next state's start; shift
	// the offsets back.
	copy(revOff[1:], revOff[:n])
	copy(predOff[1:], predOff[:n])
	revOff[0], predOff[0] = 0, 0
	g.choiceState, g.slInv, g.part, g.detOff, g.detReward = choiceState, inv, part, detOff, detReward
	g.revOff, g.revChoice, g.predOff, g.preds, g.scrQueue = revOff, revChoice, predOff, preds, mark
	g.indexed = true
}

// bellmanMaxSL and bellmanMinSL are the self-loop-eliminated Bellman
// backups used by every reachability/reward solve. Every microfluidic
// action has an ε outcome that leaves the droplet in place, so every
// routing-model choice carries a self-loop; plain value iteration squeezes
// value through those loops a geometric sliver per sweep, which is what the
// hundreds of convergence sweeps in the solver telemetry were spent on.
// Folding the loop into the backup — v = (r + Σ_{t≠s} p·v_t)/(1−q) with q
// the choice's self-loop mass — solves each choice's one-state fixpoint in
// closed form. This is value iteration on the standard self-loop-removed
// transformation of the MDP (probabilities and reward rescaled by 1/(1−q)),
// which has the same fixpoint and optimal strategies; at the fixpoint a
// plain one-step choice value equals the state value exactly, so strategy
// extraction over the original model is unaffected. The 1/(1−q) factors are
// a static model property, precomputed by index().
//
// Both backups walk the partition: the other choices one by one, then the
// gathered deterministic choices as one min (max) over their successors'
// values. This returns the bits of a walk over every choice in order. A
// gathered choice has slInv 1 and p = 1, so that walk would compute
// fl(r + x) for it, and rounding is monotone, so the smallest of those is
// fl(r + min x). The order of the walk cannot matter either: min and max
// skip NaNs and agree on every other set of values except by picking +0
// or −0 among equals, and no candidate is −0 — sums that start from a
// reward without the sign bit never round to −0, which is why a state with
// such a reward gathers nothing, and Pmax candidates start from +0.

// bellmanMaxSL is max_c Σ_{t≠s} P·src[t]/(1−q_c) over the choices of s (0
// with none). A pure self-loop choice (slInv 0) contributes 0, as if
// skipped: it can only ever yield the state's current value, which a
// from-below iterate never exceeds. A gathered choice contributes the value
// of its successor. Slab fields are hoisted into locals to keep the inner
// loops tight.
//
//meda:hotpath
func (g *csr) bellmanMaxSL(s int, src []float64) float64 {
	choiceOff, tos, probs, inv := g.choiceOff, g.tos, g.probs, g.slInv
	mid := g.detOff[s]
	best := 0.0
	for _, ci := range g.part[g.stateOff[s]:mid] {
		v := 0.0
		for ti := choiceOff[ci]; ti < choiceOff[ci+1]; ti++ {
			if int(tos[ti]) != s {
				v += probs[ti] * src[tos[ti]]
			}
		}
		v *= inv[ci]
		if v > best {
			best = v
		}
	}
	for _, t := range g.part[mid:g.stateOff[s+1]] {
		if x := src[t]; x > best {
			best = x
		}
	}
	return best
}

// bellmanMinSL is min_c (reward_c + Σ_{t≠s} P·src[t])/(1−q_c) over the
// choices of s (+Inf with none); the gathered choices contribute
// detReward[s] plus the least value of their successors. Zero-probability
// transitions are skipped so 0·Inf does not poison finite values. A pure
// self-loop choice never reaches the target, so its expected reward is +Inf
// and it is skipped (slInv 0 would otherwise yield a spuriously cheap 0).
//
//meda:hotpath
func (g *csr) bellmanMinSL(s int, src []float64) float64 {
	choiceOff, tos, probs, inv := g.choiceOff, g.tos, g.probs, g.slInv
	mid, hi := g.detOff[s], g.stateOff[s+1]
	best := math.Inf(1)
	for _, ci := range g.part[g.stateOff[s]:mid] {
		if inv[ci] == 0 {
			continue
		}
		v := g.rewards[ci]
		for ti := choiceOff[ci]; ti < choiceOff[ci+1]; ti++ {
			if p := probs[ti]; p > 0 && int(tos[ti]) != s {
				v += p * src[tos[ti]]
			}
		}
		v *= inv[ci]
		if v < best {
			best = v
		}
	}
	if mid < hi {
		m := math.Inf(1)
		for _, t := range g.part[mid:hi] {
			if x := src[t]; x < m {
				m = x
			}
		}
		if v := g.detReward[s] + m; v < best {
			best = v
		}
	}
	return best
}

// backupFunc is one of the self-loop-eliminated Bellman backups as a method
// expression, (*csr).bellmanMaxSL or (*csr).bellmanMinSL; unlike a method
// value it needs no allocation to pass. The backup of s never reads src[s].
type backupFunc func(g *csr, s int, src []float64) float64

// jacobiSweep computes dst[s] = bellman(g, s, src) for all non-frozen states
// (frozen states copy through). It returns the max-norm residual and the
// smallest state id attaining it.
func (g *csr) jacobiSweep(frozen []bool, src, dst []float64, bellman backupFunc) (float64, int) {
	delta, worst := 0.0, -1
	for s := 0; s < g.n; s++ {
		if frozen[s] {
			dst[s] = src[s]
			continue
		}
		v := bellman(g, s, src)
		dst[s] = v
		if d := math.Abs(v - src[s]); d > delta {
			delta = d
			worst = s
		}
	}
	return delta, worst
}

// iterate runs value iteration over the CSR model until the max-norm
// residual drops below eps, with Gauss-Seidel updating vals in place and
// Jacobi ping-ponging two buffers. On success the converged values are in vals and the
// iteration count is returned; on exhaustion it returns a
// *ConvergenceError naming the worst state. Sweep and backup counts and the
// final residual feed the solver telemetry.
func (g *csr) iterate(vals []float64, frozen []bool, opt SolveOptions, bellman backupFunc) (int, error) {
	iters, backups, delta, err := g.iterateRaw(vals, frozen, opt, bellman)
	telSolves.Inc()
	telSweeps.Add(int64(iters))
	telBackups.Add(int64(backups))
	telSweepsPerSolve.Observe(float64(iters))
	telResidual.Set(delta)
	return iters, err
}

// iterateRaw is iterate without telemetry, additionally reporting the number
// of Bellman backups evaluated and the final max-norm residual.
func (g *csr) iterateRaw(vals []float64, frozen []bool, opt SolveOptions, bellman backupFunc) (int, int, float64, error) {
	if opt.Method == Jacobi {
		live := 0
		for s := 0; s < g.n; s++ {
			if !frozen[s] {
				live++
			}
		}
		src := vals
		dst := growF(g.scrDst, g.n)
		g.scrDst = dst
		for iters := 0; iters < opt.MaxIter; iters++ {
			delta, worst := g.jacobiSweep(frozen, src, dst, bellman)
			src, dst = dst, src
			// src holds the latest iterate; after an even number of
			// sweeps it is vals itself, and copying a slice onto itself
			// is a no-op.
			if delta < opt.Eps {
				copy(vals, src)
				return iters + 1, (iters + 1) * live, delta, nil
			}
			if iters == opt.MaxIter-1 {
				copy(vals, src)
				return iters + 1, (iters + 1) * live, delta, g.convergenceError(worst, delta, opt.MaxIter)
			}
		}
		return 0, 0, math.Inf(1), g.convergenceError(-1, math.Inf(1), opt.MaxIter)
	}
	// Gauss-Seidel: sequential in-place sweeps, alternating direction, that
	// back up only dirty states. A self-loop-eliminated backup of s reads
	// the values of the other states its choices reach with positive
	// probability (zero-probability edges add +0 to a Max backup whatever
	// their successor's value in [0, 1], and Min backups skip them), so s
	// stays clean until one of those values changes its bits: its backup
	// would recompute the bits it already holds, and skipping it leaves
	// vals, the residual, the worst state and the sweep count exactly those
	// of full sweeps. A changed value re-dirties its predecessors.
	g.index()
	predOff, preds := g.predOff, g.preds
	dirty := growB(g.scrDirty, g.n)
	g.scrDirty = dirty
	for s := range dirty {
		dirty[s] = true
	}
	backups := 0
	for iters := 0; iters < opt.MaxIter; iters++ {
		delta, worst := 0.0, -1
		s, end, step := 0, g.n, 1
		if iters%2 == 1 {
			s, end, step = g.n-1, -1, -1
		}
		for ; s != end; s += step {
			if frozen[s] || !dirty[s] {
				continue
			}
			dirty[s] = false
			backups++
			v := bellman(g, s, vals)
			if math.Float64bits(v) == math.Float64bits(vals[s]) {
				continue
			}
			if d := math.Abs(v - vals[s]); d > delta {
				delta = d
				worst = s
			}
			vals[s] = v
			for _, p := range preds[predOff[s]:predOff[s+1]] {
				dirty[p] = true
			}
		}
		if delta < opt.Eps {
			return iters + 1, backups, delta, nil
		}
		if iters == opt.MaxIter-1 {
			return iters + 1, backups, delta, g.convergenceError(worst, delta, opt.MaxIter)
		}
	}
	return 0, 0, math.Inf(1), g.convergenceError(-1, math.Inf(1), opt.MaxIter)
}

// convergenceError labels an exhausted iteration with the state that was
// still changing and its first action, so failures in generated models point
// at the offending region instead of a bare "did not converge".
func (g *csr) convergenceError(worst int, delta float64, iters int) error {
	e := &ConvergenceError{State: StateID(worst), Action: -1, Delta: delta, Iterations: iters}
	if worst >= 0 && g.stateOff[worst] < g.stateOff[worst+1] {
		e.Action = int(g.actions[g.stateOff[worst]])
	}
	return e
}

// prob1E is the qualitative almost-sure-reachability pass over the CSR
// model: the greatest fixpoint over U of "can reach target with positive
// probability using choices that stay inside U". The inner least fixpoint is
// a backward worklist over the reverse-edge index. U only shrinks, so a
// choice with a successor outside U never stays inside U again: the
// per-choice flags that say so are set incrementally, by walking the
// incoming edges of each state as it leaves U, and an outer round costs its
// worklist plus the states it removes, not a rescan of every transition.
//
// The returned slice is solver scratch owned by g: it is valid until the
// next solve (or prob1E call) on the same model.
func (g *csr) prob1E(target, avoid []bool) []bool {
	t0 := time.Now()
	defer func() {
		telProb1ECalls.Inc()
		telProb1ENs.Add(time.Since(t0).Nanoseconds())
	}()
	g.index()
	inU := growB(g.scrInU, g.n)
	g.scrInU = inU
	inR := growB(g.scrInR, g.n)
	g.scrInR = inR
	bad := growB(g.scrBad, len(g.actions))
	g.scrBad = bad
	for ci := range bad {
		bad[ci] = false
	}
	queue := growI(g.scrQueue, g.n)[:0]
	g.scrQueue = queue
	leave := func(t int) {
		inU[t] = false
		for _, ci := range g.revChoice[g.revOff[t]:g.revOff[t+1]] {
			bad[ci] = true
		}
	}
	for s := 0; s < g.n; s++ {
		inU[s] = true
		if avoid != nil && avoid[s] {
			leave(s)
		}
	}
	for {
		queue = queue[:0]
		for s := 0; s < g.n; s++ {
			inR[s] = inU[s] && target[s]
			if inR[s] {
				queue = append(queue, int32(s))
			}
		}
		for len(queue) > 0 {
			t := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for ri := g.revOff[t]; ri < g.revOff[t+1]; ri++ {
				ci := g.revChoice[ri]
				s := g.choiceState[ci]
				if !inU[s] || inR[s] || bad[ci] {
					continue
				}
				inR[s] = true
				queue = append(queue, s)
			}
		}
		same := true
		for s := 0; s < g.n; s++ {
			if inU[s] && !inR[s] {
				same = false
				leave(s)
			}
		}
		if same {
			return inU
		}
	}
}
