package smg

import (
	"math"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/policy"
)

// Unit is the routing model of a job whose hazard window reads force 1 in
// every cell, built without an MDP. Every frontier of an enabled action
// lies inside its Apply(d), which lies inside the bounds, so every pull
// succeeds surely: each choice of the model Induce would build has one
// transition, with probability 1, to the state of action.Certain, and Rmin
// is the hop distance to the goal sink.
//
// In such a window everything about a choice but its position depends on
// the droplet's shape alone, so Unit records one stencil per (shape,
// action), finds the distances with one backward BFS over the inverted
// stencils, and picks each position's action by MinExpectedReward's rule,
// so its value, policy and sizes are bit-identical to solving the induced
// model (DESIGN.md §12). What it keeps between builds is the stencil table
// and two slabs of one int32 per state.
//
// Like a Model from Induce, a *Unit aliases its Arena's memory and is valid
// only until the next build on that Arena.
type Unit struct {
	// States, Transitions and Choices are the sizes of the model Induce
	// builds for the same job.
	States, Transitions, Choices int

	m      *Model
	dest   []mdp.StateID // the arena's dest table
	init   int32         // resolve(start): where the init commit goes
	grids  []grid        // per span: its positions as a grid
	sts    []stencil     // by source span, then in action order
	stOff  []int32       // span k's stencils are sts[stOff[k]:stOff[k+1]]
	inv    []stencil     // the same, by target span
	invOff []int32       // span k's are the target of inv[invOff[k]:invOff[k+1]]
	dist   []int32       // per state: hops to the goal sink, -1 if unreached
	queue  []int32       // BFS queue
}

// grid lays out one span's positions: position (i, j), the droplet whose
// lower-left cell is (bounds.XA+i, bounds.YA+j), is state base + j·cols + i
// for 0 ≤ i < cols and 0 ≤ j < rows, as enumerate numbers them.
type grid struct {
	base, cols, rows int32
}

// stencil is one (shape, action) pair of a unit window. The action is a
// choice of the model at position (i, j) of the source shape's grid
// exactly when i0 ≤ i ≤ i1 and j0 ≤ j ≤ j1 (allowed and enabled for the
// shape, and its Apply inside the bounds), and it takes the droplet there
// to position (i+dx, j+dy) of span tgt's grid. Row by row that is an
// affine map of state ids: source src + j·srcCols + i goes to target
// to + j·toCols + i.
type stencil struct {
	a              action.Action
	tgt, dx, dy    int32
	i0, i1, j0, j1 int32
	src, srcCols   int32
	to, toCols     int32
}

// UnitWindow reports whether the model Induce would build for a job over
// bounds is deterministic, which InduceUnit requires: field reads exactly 1
// in every cell of bounds. Cells outside bounds do not matter, as no
// frontier of an enabled action reaches them.
func UnitWindow(bounds geom.Rect, field action.ForceField) bool {
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
	m, err := ar.enumerate(bounds, start, goal, opt)
	if err != nil {
		return nil, err
	}
	u := &ar.unit
	u.m, u.dest = m, ar.dest
	u.init = int32(ar.resolve(start))
	bw, bh := int32(bounds.Width()), int32(bounds.Height())
	u.grids = u.grids[:0]
	for _, sp := range m.spans {
		u.grids = append(u.grids, grid{base: int32(sp.base), cols: bw - int32(sp.w) + 1, rows: bh - int32(sp.h) + 1})
	}
	u.sts = u.sts[:0]
	u.stOff = append(u.stOff[:0], 0)
	choices := 3 // Init's commit and the sinks' loops
	for k, sp := range m.spans {
		g := u.grids[k]
		// The shape's goal positions, whose droplet lies inside goal: each
		// has Induce's absorbing self-loop and no other choice.
		gi0, gi1 := int32(goal.XA-bounds.XA), int32(goal.XB-sp.w+1-bounds.XA)
		gj0, gj1 := int32(goal.YA-bounds.YA), int32(goal.YB-sp.h+1-bounds.YA)
		choices += int(overlap(0, g.cols-1, gi0, gi1) * overlap(0, g.rows-1, gj0, gj1))
		// Probe the shape's first position. Enabled reads only the shape,
		// and Apply and Certain commute with translation, so the probe
		// holds at every position of the span. For an enabled action
		// Certain is Apply, so the target lies inside the bounds wherever
		// Apply does.
		d := geom.Rect{XA: bounds.XA, YA: bounds.YA, XB: bounds.XA + sp.w - 1, YB: bounds.YA + sp.h - 1}
		for a := action.Action(0); a < action.NumActions; a++ {
			if !opt.allowed(a) || !a.Enabled(d, action.DefaultMaxAspect) {
				continue
			}
			ap, to := a.Apply(d), action.Certain(d, a)
			s := stencil{a: a, tgt: m.spanOf(to.Width(), to.Height()),
				dx: int32(to.XA - d.XA), dy: int32(to.YA - d.YA),
				i0: max(0, int32(bounds.XA-ap.XA)), i1: min(g.cols-1, int32(bounds.XB-ap.XB)),
				j0: max(0, int32(bounds.YA-ap.YA)), j1: min(g.rows-1, int32(bounds.YB-ap.YB)),
				src: g.base, srcCols: g.cols}
			tg := u.grids[s.tgt]
			s.to, s.toCols = tg.base+s.dy*tg.cols+s.dx, tg.cols
			if s.i0 > s.i1 || s.j0 > s.j1 {
				continue // no position of the shape keeps it inside the bounds
			}
			// One choice per source position that is not a goal position.
			choices += int((s.i1-s.i0+1)*(s.j1-s.j0+1) - overlap(s.i0, s.i1, gi0, gi1)*overlap(s.j0, s.j1, gj0, gj1))
			u.sts = append(u.sts, s)
		}
		u.stOff = append(u.stOff, int32(len(u.sts)))
	}
	// The same stencils grouped by target span, for Solve.
	u.inv, u.invOff = u.inv[:0], append(u.invOff[:0], 0)
	for k := range m.spans {
		for _, s := range u.sts {
			if s.tgt == int32(k) {
				u.inv = append(u.inv, s)
			}
		}
		u.invOff = append(u.invOff, int32(len(u.inv)))
	}
	u.States = len(m.rects) + 3
	u.Choices = choices
	u.Transitions = u.Choices
	return u, nil
}

// overlap returns how many integers lie in both [a0, a1] and [b0, b1].
func overlap(a0, a1, b0, b1 int32) int32 {
	return max(0, min(a1, b1)-max(a0, b0)+1)
}

// spanOf returns the index of the span of shape w×h. Every target of an
// enabled action has an enumerated shape: appendShapes closes the start's
// shape under the morphs the options allow.
func (m *Model) spanOf(w, h int) int32 {
	for k, sp := range m.spans {
		if sp.w == w && sp.h == h {
			return int32(k)
		}
	}
	panic("smg: stencil target shape not enumerated")
}

// Solve computes every state's hop distance to the goal sink with one
// backward BFS. The predecessors of an ordinary position are the sources
// of the stencils that land on it; those of the goal sink are the sources
// that land on any goal position. Goal positions have no choice but their
// self-loop, so they are nobody's predecessor. A position on an obstacle
// (dest is the hazard sink) can be reached as a source but is never
// expanded: every move onto it goes to the hazard sink, which the BFS
// never enters.
func (u *Unit) Solve() {
	ns := len(u.m.rects) + 3
	dist := resize(u.dist, ns)
	for s := range dist {
		dist[s] = -1
	}
	goal := int32(u.m.GoalSink)
	dist[goal] = 0
	u.dist = dist
	u.queue = append(resize(u.queue, ns)[:0], goal)
	for head := 0; head < len(u.queue); head++ {
		t := u.queue[head]
		switch {
		case t == goal:
			for p, to := range u.dest {
				if to == u.m.GoalSink {
					u.expand(int32(p), 1)
				}
			}
		case u.dest[t] == mdp.StateID(t):
			u.expand(t, dist[t]+1)
		}
	}
}

// expand gives distance d to every unreached source position, other than
// a goal position, of a stencil that lands on position p.
func (u *Unit) expand(p, d int32) {
	k := int32(len(u.grids) - 1)
	for u.grids[k].base > p {
		k--
	}
	g := u.grids[k]
	pi, pj := (p-g.base)%g.cols, (p-g.base)/g.cols
	dist, dest, goal := u.dist, u.dest, u.m.GoalSink
	for si := u.invOff[k]; si < u.invOff[k+1]; si++ {
		s := &u.inv[si]
		i, j := pi-s.dx, pj-s.dy
		if i < s.i0 || i > s.i1 || j < s.j0 || j > s.j1 {
			continue
		}
		if q := s.src + j*s.srcCols + i; dist[q] < 0 && dest[q] != goal {
			dist[q] = d
			u.queue = append(u.queue, q)
		}
	}
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
// MinExpectedReward extracts (the first with 1 + d < best − 1e-12). The
// BFS gave a reached position at distance d a successor at d − 1 and none
// closer, so that choice is the first whose successor is at d − 1.
func (u *Unit) Policy() policy.Policy {
	dist, dest := u.dist, u.dest
	u.m.packShapes(func(k, id int) (action.Action, bool) {
		want := dist[id] - 1
		if want < 0 {
			return 0, false // unreached, or a goal position
		}
		g := u.grids[k]
		c := int32(id) - g.base
		i, j := c%g.cols, c/g.cols
		for _, s := range u.sts[u.stOff[k]:u.stOff[k+1]] {
			if i < s.i0 || i > s.i1 || j < s.j0 || j > s.j1 {
				continue
			}
			if dist[dest[s.to+j*s.toCols+i]] == want {
				return s.a, true
			}
		}
		panic("smg: reached position without a successor one hop closer")
	})
	return u.m.pack.Policy()
}
