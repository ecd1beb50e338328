// Compressed-sparse-row flattening of the MDP. The builder API of mdp.go
// stores a pointer-chasing [][]Choice graph, which is convenient to grow but
// hostile to the value-iteration hot loop: every sweep walks three levels of
// slices with poor locality. flatten() packs the whole model once per Solve
// into five contiguous arrays (state → choice offsets, choice → transition
// offsets, per-choice action/reward, per-transition successor/probability),
// so a Bellman backup is two tight index-range loops over sequential memory.
//
// The same layout carries a reverse-edge index (successor → incoming
// choices), which turns the qualitative Prob1E pass from repeated forward
// scans into a worklist propagation, and on deterministic models with unit
// costs replaces it with one BFS that also yields the exact Rmin values
// (unitDistances). Folded into per-state predecessor
// lists, it also drives the change-driven Gauss-Seidel sweeps: a state is
// backed up again only after a successor's value changed. Gauss-Seidel, the
// default solver, alternates sweep direction each iteration so value
// information propagates end to end regardless of how state ids are ordered
// relative to the goal; Jacobi sweeps from the previous iterate and serves
// as its differential reference.
package mdp

import (
	"math"
	"time"
)

// csr is the flattened model. Offsets are int32: routing models have well
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

	// Reverse-edge index over positive-probability transitions, built lazily
	// by reverseIndex(): revChoice lists the (global) choice ids with an
	// incoming edge to state t in [revOff[t], revOff[t+1]); choiceState maps
	// a global choice id back to its owning state. revBuilt gates the lazy
	// build so Builder.Reset can recycle the slabs in place.
	revBuilt    bool
	revOff      []int32
	revChoice   []int32
	choiceState []int32

	// Per-choice self-loop factor 1/(1-q) for the self-loop-eliminated
	// backups (0 marks a pure self-loop choice, which those backups skip),
	// built lazily by selfLoopInv(). Like the reverse index it depends only
	// on the model structure, so it is built once and recycled by
	// Builder.Reset.
	slBuilt bool
	slInv   []float64
	// Per-state predecessors for the change-driven Gauss-Seidel sweeps,
	// built lazily by predLists(): slPreds[slPredOff[t]:slPredOff[t+1]]
	// lists, once each and in ascending order, the states other than t that
	// own a choice with a positive-probability edge into t — the states
	// whose self-loop-eliminated backups read t's value. It is the reverse
	// index folded from choices to states, with self-loops dropped.
	predBuilt bool
	slPredOff []int32
	slPreds   []int32

	// Solver scratch, grown in place and reused across solves so a
	// Builder-recycled model pays no per-solve allocations for it. The
	// slabs are private to one solve at a time: models sharing a csr
	// (Builder-built ones) must not be solved concurrently.
	scrDst    []float64 // jacobi ping-pong buffer
	scrFrozen []bool
	scrInU    []bool  // prob1E: candidate set U
	scrInR    []bool  // prob1E: reach closure R
	scrBad    []int32 // prob1E: per-choice leave-U counts
	scrQueue  []int32 // worklist shared by prob1E and strategy extraction
	scrMark   []int32 // reverseIndex: per-state dedup marks
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

// flatten packs the MDP into CSR form. Builder-built models are already
// flat and return their (scratch-carrying) csr directly; list-backed models
// pack fresh per call, so the builder slices stay authoritative for
// Choices()/export and concurrent solves never share scratch.
func (m *MDP) flatten() *csr {
	if m.flat != nil {
		return m.flat
	}
	n := len(m.choices)
	nc := m.NumChoices()
	g := &csr{
		n:         n,
		stateOff:  make([]int32, n+1),
		choiceOff: make([]int32, nc+1),
		actions:   make([]int32, nc),
		rewards:   make([]float64, nc),
		tos:       make([]int32, m.numTr),
		probs:     make([]float64, m.numTr),
	}
	ci, ti := int32(0), int32(0)
	for s, cs := range m.choices {
		g.stateOff[s] = ci
		for _, c := range cs {
			g.choiceOff[ci] = ti
			g.actions[ci] = int32(c.Action)
			g.rewards[ci] = c.Reward
			for _, tr := range c.Transitions {
				g.tos[ti] = int32(tr.To)
				g.probs[ti] = tr.P
				ti++
			}
			ci++
		}
	}
	g.stateOff[n] = ci
	g.choiceOff[nc] = ti
	return g
}

// reverseIndex builds the successor → incoming-choice index (positive-
// probability edges only, deduplicated per choice) plus the choice → state
// map. Idempotent.
func (g *csr) reverseIndex() {
	if g.revBuilt {
		return
	}
	nc := len(g.actions)
	g.choiceState = growI(g.choiceState, nc)
	for s := 0; s < g.n; s++ {
		for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
			g.choiceState[ci] = int32(s)
		}
	}
	// Counting pass. A choice may have several transitions into the same
	// successor; deduplicate so the worklist visits each (choice, succ)
	// pair once.
	counts := growI(g.revOff, g.n+1)
	for i := range counts {
		counts[i] = 0
	}
	mark := growI(g.scrMark, g.n) // last choice that counted an edge into t
	g.scrMark = mark
	for i := range mark {
		mark[i] = -1
	}
	for ci := 0; ci < nc; ci++ {
		for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
			if g.probs[ti] <= 0 {
				continue
			}
			t := g.tos[ti]
			if mark[t] == int32(ci) {
				continue
			}
			mark[t] = int32(ci)
			counts[t+1]++
		}
	}
	for t := 0; t < g.n; t++ {
		counts[t+1] += counts[t]
	}
	g.revOff = counts
	g.revChoice = growI(g.revChoice, int(counts[g.n]))
	// Reuse the mark slab as the per-state write cursor; a second scratch
	// tracks the dedup marks for the fill pass.
	next := growI(g.scrQueue, g.n)
	g.scrQueue = next
	copy(next, counts[:g.n])
	for i := range mark {
		mark[i] = -1
	}
	for ci := 0; ci < nc; ci++ {
		for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
			if g.probs[ti] <= 0 {
				continue
			}
			t := g.tos[ti]
			if mark[t] == int32(ci) {
				continue
			}
			mark[t] = int32(ci)
			g.revChoice[next[t]] = int32(ci)
			next[t]++
		}
	}
	g.revBuilt = true
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
// a static model property and are precomputed once by selfLoopInv().

// selfLoopInv builds the per-choice 1/(1-q) slab, with q the choice's
// self-loop probability mass; choices with q ≈ 1 (pure self-loops) get 0 as
// a skip marker. It builds the reverse index first, for choiceState.
// Idempotent.
func (g *csr) selfLoopInv() {
	if g.slBuilt {
		return
	}
	g.reverseIndex()
	nc := len(g.actions)
	inv := growF(g.slInv, nc)
	for ci := 0; ci < nc; ci++ {
		q := 0.0
		s := int(g.choiceState[ci])
		for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
			if g.probs[ti] > 0 && int(g.tos[ti]) == s {
				q += g.probs[ti]
			}
		}
		switch {
		case q >= 1-1e-12:
			inv[ci] = 0
		case q > 0:
			inv[ci] = 1 / (1 - q)
		default:
			inv[ci] = 1
		}
	}
	g.slInv = inv
	g.slBuilt = true
}

// predLists folds the reverse index into the per-state predecessor lists:
// count them, size the slab exactly, then fill it. revChoice is ascending
// and a state's choices are contiguous, so repeated owners are adjacent.
// Gauss-Seidel calls it on a solve's first value change, so a solve whose
// first sweep changes nothing (a seeded one) never pays for it. Idempotent.
func (g *csr) predLists() {
	if g.predBuilt {
		return
	}
	g.reverseIndex()
	off := growI(g.slPredOff, g.n+1)
	var preds []int32
	for fill := false; ; fill = true {
		k := int32(0)
		for t := 0; t < g.n; t++ {
			off[t] = k
			last := int32(-1)
			for ri := g.revOff[t]; ri < g.revOff[t+1]; ri++ {
				if s := g.choiceState[g.revChoice[ri]]; s != last && int(s) != t {
					if fill {
						preds[k] = s
					}
					k++
					last = s
				}
			}
		}
		off[g.n] = k
		if fill {
			break
		}
		preds = growI(g.slPreds, int(k))
	}
	g.slPredOff, g.slPreds = off, preds
	g.predBuilt = true
}

// bellmanMaxSL is max_c Σ_{t≠s} P·src[t]/(1−q_c) over the choices of s (0
// with none). A pure self-loop choice (slInv 0) contributes 0, as if
// skipped: it can only ever yield the state's current value, which a
// from-below iterate never exceeds. Slab fields are hoisted into locals to
// keep the inner loops tight.
//
//meda:hotpath
func (g *csr) bellmanMaxSL(s int, src []float64) float64 {
	choiceOff, tos, probs, inv := g.choiceOff, g.tos, g.probs, g.slInv
	best := 0.0
	for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
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
	return best
}

// bellmanMinSL is min_c (reward_c + Σ_{t≠s} P·src[t])/(1−q_c) over the
// choices of s (+Inf with none). Zero-probability transitions are skipped
// so 0·Inf does not poison finite values. A pure self-loop choice never
// reaches the target, so its expected reward is +Inf and it is skipped
// (slInv 0 would otherwise yield a spuriously cheap 0).
//
//meda:hotpath
func (g *csr) bellmanMinSL(s int, src []float64) float64 {
	choiceOff, tos, probs, inv := g.choiceOff, g.tos, g.probs, g.slInv
	best := math.Inf(1)
	for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
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
	// of full sweeps. A changed value re-dirties its predecessors, whose
	// lists are built on the first change.
	g.selfLoopInv()
	var predOff, preds []int32
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
			if predOff == nil {
				g.predLists()
				predOff, preds = g.slPredOff, g.slPreds
			}
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

// unitDistances is the qualitative pass of Rmin for deterministic models
// with unit costs, and their exact values. It applies when every choice of
// every state that is neither target nor avoid is a pure self-loop (one
// transition, to itself, p = 1) or a unit choice: one transition, to
// another state, p = 1 and reward 1. Reward 0 is allowed only on a state
// with no incoming edge (smg's Init commit), which rules out zero-cost
// cycles. On such a model Rmin is the hop distance to the target: one
// backward BFS from the un-avoided targets, never entering a target or
// avoid state, reaches exactly the states prob1E would return, and writes
// each one's distance into dist. Zero-reward sources take their cheapest
// choice after the BFS, as nothing reads their value. It returns the reached
// set (solver scratch, like prob1E's) and the largest distance of a
// non-target state, or nil when the model does not qualify.
func (g *csr) unitDistances(target, avoid []bool, dist []float64) ([]bool, int) {
	t0 := time.Now()
	g.reverseIndex()
	for s := 0; s < g.n; s++ {
		if target[s] || (avoid != nil && avoid[s]) {
			continue
		}
		for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
			ti := g.choiceOff[ci]
			if g.choiceOff[ci+1] != ti+1 || !IsOneProb(g.probs[ti]) {
				return nil, 0
			}
			if int(g.tos[ti]) == s {
				continue
			}
			if r := g.rewards[ci]; r != 1 && (r != 0 || g.revOff[s] != g.revOff[s+1]) {
				return nil, 0
			}
		}
	}
	defer func() {
		telProb1ECalls.Inc()
		telProb1ENs.Add(time.Since(t0).Nanoseconds())
	}()
	reached := growB(g.scrInR, g.n)
	g.scrInR = reached
	queue := growI(g.scrQueue, g.n)[:0]
	g.scrQueue = queue
	for s := 0; s < g.n; s++ {
		reached[s] = target[s] && (avoid == nil || !avoid[s])
		if reached[s] {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		t := queue[head]
		for ri := g.revOff[t]; ri < g.revOff[t+1]; ri++ {
			s := g.choiceState[g.revChoice[ri]]
			if reached[s] || (avoid != nil && avoid[s]) { // targets are reached or avoided
				continue
			}
			reached[s] = true
			dist[s] = dist[t] + 1
			queue = append(queue, s)
		}
	}
	dmax := 0.0
	for s := 0; s < g.n; s++ {
		if !reached[s] || target[s] {
			continue
		}
		if g.revOff[s] == g.revOff[s+1] {
			d := math.Inf(1)
			for ci := g.stateOff[s]; ci < g.stateOff[s+1]; ci++ {
				if t := g.tos[g.choiceOff[ci]]; int(t) != s && reached[t] {
					d = min(d, g.rewards[ci]+dist[t])
				}
			}
			dist[s] = d
		}
		dmax = max(dmax, dist[s])
	}
	return reached, int(dmax)
}

// prob1E is the qualitative almost-sure-reachability pass over the CSR
// model: the greatest fixpoint over U of "can reach target with positive
// probability using choices that stay inside U". The inner least fixpoint is
// a backward worklist over the reverse-edge index — each outer round costs
// one scan of the transitions (to refresh per-choice leave-U counts) plus
// work proportional to the edges actually propagated, instead of repeated
// full forward sweeps.
//
// The returned slice is solver scratch owned by g: it is valid until the
// next solve (or prob1E call) on the same model. MDP.Prob1E copies it for
// external callers.
func (g *csr) prob1E(target, avoid []bool) []bool {
	t0 := time.Now()
	defer func() {
		telProb1ECalls.Inc()
		telProb1ENs.Add(time.Since(t0).Nanoseconds())
	}()
	g.reverseIndex()
	nc := len(g.actions)
	inU := growB(g.scrInU, g.n)
	g.scrInU = inU
	for s := 0; s < g.n; s++ {
		inU[s] = avoid == nil || !avoid[s]
	}
	inR := growB(g.scrInR, g.n)
	g.scrInR = inR
	bad := growI(g.scrBad, nc) // per choice: #positive transitions leaving U
	g.scrBad = bad
	queue := growI(g.scrQueue, g.n)[:0]
	g.scrQueue = queue
	for {
		for ci := range bad {
			bad[ci] = 0
		}
		for ci := 0; ci < nc; ci++ {
			for ti := g.choiceOff[ci]; ti < g.choiceOff[ci+1]; ti++ {
				if g.probs[ti] > 0 && !inU[g.tos[ti]] {
					bad[ci]++
				}
			}
		}
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
				if !inU[s] || inR[s] || bad[ci] > 0 {
					continue
				}
				inR[s] = true
				queue = append(queue, s)
			}
		}
		same := true
		for s := 0; s < g.n; s++ {
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
