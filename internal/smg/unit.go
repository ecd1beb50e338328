package smg

import (
	"math"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/policy"
)

// Unit is the routing model of a job whose hazard window reads force 1 in
// every cell, built without an MDP. Every frontier of an enabled action
// lies inside its Apply(d), which lies inside the bounds, so every pull
// succeeds surely: each choice of the model Induce would build has one
// transition, with probability 1, to the state of action.Certain, and Rmin
// is the hop distance to the goal sink. Unit records that one successor per
// (position, enabled action), finds the distances with one backward BFS,
// and picks each position's action by MinExpectedReward's rule, so its
// value, policy and sizes are bit-identical to solving the induced model
// (DESIGN.md §12).
//
// Like a Model from Induce, a *Unit aliases its Arena's memory and is valid
// only until the next build on that Arena.
type Unit struct {
	// States, Transitions and Choices are the sizes of the model Induce
	// builds for the same job.
	States, Transitions, Choices int

	m      *Model
	init   int32           // resolve(start): where the init commit goes
	off    []int32         // position → its successors [off[id], off[id+1])
	acts   []action.Action // per successor: the action that reaches it
	succ   []int32         // per successor: its destination state
	revOff []int32         // state → its predecessors [revOff[t], revOff[t+1])
	revSrc []int32         // the predecessor positions, grouped by state
	dist   []int32         // per state: hops to the goal sink, -1 if unreached
	queue  []int32         // BFS queue
}

// UnitWindow reports whether the model Induce would build for a job over
// bounds is deterministic with unit costs, which InduceUnit requires:
// opt's ActionCost is 1 after defaults and field reads exactly 1 in every
// cell of bounds. Cells outside bounds do not matter, as no frontier of an
// enabled action reaches them.
func UnitWindow(bounds geom.Rect, field action.ForceField, opt ModelOptions) bool {
	if opt.withDefaults().ActionCost != 1 {
		return false
	}
	for y := bounds.YA; y <= bounds.YB; y++ {
		for x := bounds.XA; x <= bounds.XB; x++ {
			if field(x, y) != 1 {
				return false
			}
		}
	}
	return true
}

// InduceUnit builds the Unit model of a routing job over a window for which
// UnitWindow holds. Its errors are Induce's.
func (ar *Arena) InduceUnit(bounds, start, goal geom.Rect, opt ModelOptions) (*Unit, error) {
	m, opt, err := ar.enumerate(bounds, start, goal, opt)
	if err != nil {
		return nil, err
	}
	u := &ar.unit
	u.m = m
	u.init = int32(ar.resolve(start))
	// Size the slabs for the most choices a position can have, so that a
	// fresh arena allocates each once instead of growing it by doubling.
	k := 0
	for a := action.Action(0); a < action.NumActions; a++ {
		if opt.allowed(a) {
			k++
		}
	}
	u.off = append(resize(u.off, len(m.rects)+1)[:0], 0)
	u.acts = resize(u.acts, k*len(m.rects))[:0]
	u.succ = resize(u.succ, k*len(m.rects))[:0]
	goals := 0
	for id, d := range m.rects {
		if ar.dest[id] == m.GoalSink {
			goals++ // Induce's absorbing self-loop; never on a path
		} else {
			for a := action.Action(0); a < action.NumActions; a++ {
				// Induce's choices: allowed, enabled, inside the bounds.
				if opt.allowed(a) && a.Enabled(d, opt.MaxAspect) && bounds.ContainsRect(a.Apply(d)) {
					u.acts = append(u.acts, a)
					u.succ = append(u.succ, int32(ar.resolve(action.Certain(d, a))))
				}
			}
		}
		u.off = append(u.off, int32(len(u.succ)))
	}
	u.States = len(m.rects) + 3
	u.Choices = len(u.succ) + goals + 3 // plus Init's commit and the sinks' loops
	u.Transitions = u.Choices
	return u, nil
}

// Solve computes every state's hop distance to the goal sink with one
// backward BFS that never enters the hazard sink, and returns the largest
// distance of a reached position (0 when none is reached).
func (u *Unit) Solve() int {
	n := len(u.m.rects)
	ns := n + 3
	// Reverse index by counting sort: count each state's incoming edges
	// two slots ahead, prefix-sum, then place sources one slot ahead, which
	// leaves state t's predecessors in [revOff[t], revOff[t+1]). The hazard
	// sink is never dequeued (it has no successors, so it is nobody's
	// predecessor), so the BFS never enters it.
	revOff := resize(u.revOff, ns+2)
	clear(revOff)
	for _, t := range u.succ {
		revOff[t+2]++
	}
	for t := 2; t < len(revOff); t++ {
		revOff[t] += revOff[t-1]
	}
	revSrc := resize(u.revSrc, len(u.succ))
	for s := 0; s < n; s++ {
		for _, t := range u.succ[u.off[s]:u.off[s+1]] {
			revSrc[revOff[t+1]] = int32(s)
			revOff[t+1]++
		}
	}
	u.revOff, u.revSrc = revOff, revSrc

	dist := resize(u.dist, ns)
	for s := range dist {
		dist[s] = -1
	}
	goal := int32(u.m.GoalSink)
	dist[goal] = 0
	queue := append(resize(u.queue, ns)[:0], goal)
	dmax := int32(0)
	for head := 0; head < len(queue); head++ {
		t := queue[head]
		for _, s := range revSrc[revOff[t]:revOff[t+1]] {
			if dist[s] < 0 {
				dist[s] = dist[t] + 1
				dmax = max(dmax, dist[s])
				queue = append(queue, s)
			}
		}
	}
	u.dist, u.queue = dist, queue
	return int(dmax)
}

// Value returns the job's Rmin after Solve: the start's distance to the
// goal, or +Inf when no strategy reaches it.
func (u *Unit) Value() float64 {
	if d := u.dist[u.init]; d >= 0 {
		return float64(d)
	}
	return math.Inf(1)
}

// Policy returns the strategy after Solve: every reached position takes its
// first action, in enumeration order, whose successor has the strictly
// smallest distance. Distances are integers, so this is the choice
// MinExpectedReward extracts (the first with 1 + d < best − 1e-12).
func (u *Unit) Policy() policy.Policy {
	u.m.packShapes(func(id int) (action.Action, bool) {
		if u.dist[id] < 0 {
			return 0, false
		}
		best, bi := int32(math.MaxInt32), int32(-1)
		for c := u.off[id]; c < u.off[id+1]; c++ {
			if dt := u.dist[u.succ[c]]; dt >= 0 && dt < best {
				best, bi = dt, c
			}
		}
		return u.acts[bi], true
	})
	return u.m.pack.Policy()
}
