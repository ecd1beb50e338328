// Package smg implements the stochastic-game model of MEDA biochips from
// Sec. V-C and its reduction to per-routing-job Markov decision processes
// from Sec. VI-C.
//
// The game G = (S, A1 ∪ A2, γ, s0) has states (δ, H, λ): the droplet
// rectangle, the health matrix, and whose turn it is. Player ① is the
// droplet controller with the 20 microfluidic actions of package action;
// player ② is biochip degradation, which nondeterministically lowers health
// codes (in simulation, nature plays ② by wearing microelectrodes as they
// are actuated, and by triggering injected hard faults).
//
// For synthesis the paper applies a partial-order reduction: within one
// routing job the health matrix changes negligibly, so H is frozen at its
// current value and the game collapses to an MDP over droplet rectangles
// restricted to the job's hazard bounds. Induce builds that MDP explicitly;
// InduceUnit builds the all-healthy case, a unit-cost graph, without one.
package smg

import (
	"fmt"

	"meda/internal/action"
	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/randx"
)

// Player identifies whose turn it is in the game.
type Player int

const (
	// Controller is player ①, the droplet controller.
	Controller Player = 1
	// Environment is player ②, biochip degradation.
	Environment Player = 2
)

// String names the player.
func (p Player) String() string {
	if p == Controller {
		return "controller"
	}
	return "environment"
}

// Game binds the droplet actuation model to a biochip, exposing the two
// model fidelities of Sec. V-C: the full-information view used for strategy
// synthesis (health matrix H) and the hidden-information view used for
// simulation (degradation matrix D).
type Game struct {
	Chip *chip.Chip
	// Bounds restricts legal droplet rectangles (a routing job's hazard
	// bounds, or the whole chip).
	Bounds geom.Rect
	// MaxAspect is the aspect-ratio guard bound r (default 2).
	MaxAspect float64
}

// NewGame returns a game over the whole chip with the default guards.
func NewGame(c *chip.Chip) *Game {
	return &Game{Chip: c, Bounds: c.Bounds(), MaxAspect: action.DefaultMaxAspect}
}

// EnabledActions returns the ① actions enabled for droplet d: guard
// conditions hold and the fully-successful destination stays within Bounds
// (the droplet is forbidden from leaving the allowed area).
func (g *Game) EnabledActions(d geom.Rect) []action.Action {
	var out []action.Action
	for _, a := range action.All() {
		if !a.Enabled(d, g.MaxAspect) {
			continue
		}
		if !g.Bounds.ContainsRect(a.Apply(d)) {
			continue
		}
		out = append(out, a)
	}
	return out
}

// OutcomesTrue returns the outcome distribution of action a on droplet d
// under the hidden degradation matrix D (simulation fidelity).
func (g *Game) OutcomesTrue(d geom.Rect, a action.Action) []action.Outcome {
	return action.Outcomes(d, a, g.Chip.TrueForceField())
}

// OutcomesObserved returns the outcome distribution under the observed b-bit
// health matrix H (synthesis fidelity).
func (g *Game) OutcomesObserved(d geom.Rect, a action.Action) []action.Outcome {
	return action.Outcomes(d, a, g.Chip.ObservedForceField())
}

// Step samples nature's resolution of action a on droplet d using the true
// degradation state, returning the next droplet rectangle. It does not
// actuate the chip; callers account for wear via chip.Actuate, which is
// player ②'s move.
func (g *Game) Step(d geom.Rect, a action.Action, src *randx.Source) geom.Rect {
	outs := g.OutcomesTrue(d, a)
	weights := make([]float64, len(outs))
	for i, o := range outs {
		weights[i] = o.P
	}
	return outs[src.Choose(weights)].Droplet
}

// ModelOptions configures the induced per-routing-job MDP.
type ModelOptions struct {
	// MaxAspect is the aspect-ratio guard bound r.
	MaxAspect float64
	// AllowMorph includes the A_↓/A_↑ shape-morphing actions (and the
	// reachable droplet shapes) in the model. The paper's Table V models
	// use fixed-shape droplets; morphing is an extension.
	AllowMorph bool
	// AllowDouble includes the double-step movements A_dd.
	AllowDouble bool
	// AllowOrdinal includes the ordinal movements A_dd'.
	AllowOrdinal bool
	// ActionCost is the reward assigned to each ① action (1 cycle).
	ActionCost float64
	// Blocked lists rectangles the droplet must not overlap (e.g. other
	// droplets resting on the array, already grown by the scheduler's
	// collision margin). Outcomes landing on a blocked rectangle are
	// treated as hazard, so synthesized strategies route around them.
	// The start rectangle itself is exempt.
	Blocked []geom.Rect
}

// DefaultModelOptions mirrors the paper's synthesis configuration: full
// movement alphabet, no morphing, unit cycle cost.
func DefaultModelOptions() ModelOptions {
	return ModelOptions{
		MaxAspect:    action.DefaultMaxAspect,
		AllowDouble:  true,
		AllowOrdinal: true,
		ActionCost:   1,
	}
}

// withDefaults returns o, or DefaultModelOptions with o's obstacles when o
// is the zero value (MaxAspect <= 0).
func (o ModelOptions) withDefaults() ModelOptions {
	if o.MaxAspect > 0 {
		return o
	}
	blocked := o.Blocked
	o = DefaultModelOptions()
	o.Blocked = blocked
	return o
}

func (o ModelOptions) allowed(a action.Action) bool {
	switch a.Class() {
	case action.Cardinal:
		return true
	case action.Double:
		return o.AllowDouble
	case action.Ordinal:
		return o.AllowOrdinal
	default:
		return o.AllowMorph
	}
}

// Model is the MDP induced from the game for one routing job, together with
// the bookkeeping needed to interpret solver output: the mapping between
// droplet rectangles and state ids, the three special states, and the
// goal/hazard label vectors of Alg. 2.
type Model struct {
	M     *mdp.MDP
	Start mdp.StateID
	// Init is the commit state: its single zero-cost choice dispatches
	// the droplet to Start, mirroring the game's initial ① turn.
	Init mdp.StateID
	// GoalSink absorbs every outcome that satisfies the goal label;
	// HazardSink absorbs every outcome that violates the hazard bounds
	// (reachable only when an enabled action can exit, which the default
	// guard construction prevents).
	GoalSink, HazardSink mdp.StateID
	Goal, Hazard         []bool

	bounds geom.Rect
	spans  []span      // one per enumerated droplet shape, in id order
	rects  []geom.Rect // position-state id → droplet rectangle
}

// span records the contiguous block of state ids occupied by one droplet
// shape: positions are enumerated row-major (x fastest) within bounds, so a
// rectangle's id is recovered arithmetically instead of via a hash map.
type span struct {
	w, h int
	base mdp.StateID
}

// StateOf returns the MDP state of a droplet rectangle.
func (m *Model) StateOf(d geom.Rect) (mdp.StateID, bool) {
	if !m.bounds.ContainsRect(d) {
		return 0, false
	}
	w, h := d.Width(), d.Height()
	for _, sp := range m.spans {
		if sp.w != w || sp.h != h {
			continue
		}
		cols := m.bounds.XB - m.bounds.XA - w + 2 // positions per row
		id := sp.base + mdp.StateID((d.YA-m.bounds.YA)*cols+(d.XA-m.bounds.XA))
		return id, true
	}
	return 0, false
}

// RectOf returns the droplet rectangle of a position state; ok is false for
// the three bookkeeping states.
func (m *Model) RectOf(s mdp.StateID) (geom.Rect, bool) {
	if int(s) >= len(m.rects) {
		return geom.ZeroRect, false
	}
	return m.rects[s], true
}

// NumPositions returns the number of droplet-rectangle states (excluding the
// three bookkeeping states).
func (m *Model) NumPositions() int { return len(m.rects) }

// GoalLabel evaluates the paper's goal label for a droplet rectangle:
// (xa ≥ xag) ∧ (ya ≥ yag) ∧ (xb ≤ xbg) ∧ (yb ≤ ybg), i.e. the droplet lies
// within the goal rectangle.
func GoalLabel(d, goal geom.Rect) bool { return goal.ContainsRect(d) }

// HazardLabel evaluates the hazard label: the droplet exceeds the hazard
// bounds in any direction.
func HazardLabel(d, bounds geom.Rect) bool { return !bounds.ContainsRect(d) }

// appendShapes appends the droplet shapes reachable from (w, h) through the
// morph actions under the aspect-ratio guard, including (w, h) itself, to
// dst (used as both BFS queue and result; visited shapes are scanned in
// place instead of hashed — the reachable set is tiny).
func appendShapes(dst [][2]int, w, h int, opt ModelOptions) [][2]int {
	dst = append(dst, [2]int{w, h})
	if !opt.AllowMorph {
		return dst
	}
	seen := func(s [2]int) bool {
		for _, t := range dst {
			if t == s {
				return true
			}
		}
		return false
	}
	for head := 0; head < len(dst); head++ {
		// Probe the guard with a canonical rectangle of this shape.
		s := dst[head]
		d := geom.Rect{XA: 1, YA: 1, XB: s[0], YB: s[1]}
		for a := action.WidenNE; a <= action.HeightenSW; a++ {
			if !a.Enabled(d, opt.MaxAspect) {
				continue
			}
			nd := a.Apply(d)
			if ns := ([2]int{nd.Width(), nd.Height()}); !seen(ns) {
				dst = append(dst, ns)
			}
		}
	}
	return dst
}

// Arena builds per-routing-job MDPs with reusable memory: the CSR slabs of
// an mdp.Builder plus the model bookkeeping (rectangle table, shape spans,
// label vectors, outcome scratch, force snapshot, frontier-mean and
// destination tables) are all grown in place and recycled across Induce
// calls, so a warmed Arena induces a model of any previously seen size with
// a handful of allocations instead of tens of thousands. InduceUnit
// recycles the bookkeeping and the Unit's slabs the same way.
//
// The *Model returned by Induce aliases the Arena's memory: it is valid only
// until the next Induce on the same Arena, must not be used from multiple
// goroutines concurrently with a rebuild, and (being Builder-built) shares
// solver scratch — do not run two solves on it concurrently. The zero value
// is ready for use.
type Arena struct {
	b      mdp.Builder
	model  Model
	shapes [][2]int
	outs   []action.Outcome
	forces []float64 // the field over the hazard bounds plus ring, row-major
	means  frontierMeans
	dest   []mdp.StateID // position state → where an outcome landing there goes
	unit   Unit
	builds int
}

// forceRing is the margin of cells around the hazard bounds that the force
// snapshot also copies, matching chip.SnapshotForceField. No frontier reads
// it (see snapshot); it keeps the snapshot indexable a double step past the
// bounds.
const forceRing = 2

// Builds returns how many models this arena has induced; any value above 1
// means slabs are being recycled.
func (ar *Arena) Builds() int { return ar.builds }

// Induce builds the per-routing-job MDP: droplet rectangles of the start
// shape (plus morph-reachable shapes if enabled) positioned within bounds,
// an init commit state, and goal/hazard sinks. field supplies the relative
// EWOD force per microelectrode — the observed field for synthesis, or the
// true field for oracle experiments. Induce reads it once per cell of bounds
// plus a two-cell ring (off-chip cells must read 0, as ForceField requires).
func (ar *Arena) Induce(bounds, start, goal geom.Rect, field action.ForceField, opt ModelOptions) (*Model, error) {
	m, opt, err := ar.enumerate(bounds, start, goal, opt)
	if err != nil {
		return nil, err
	}
	ar.b.Reset()
	ar.b.AddStates(len(m.rects) + 3) // positions, then Init, GoalSink, HazardSink

	ar.means.fill(bounds, start.Width(), start.Height(), ar.snapshot(bounds.Expand(forceRing), field))
	for id, d := range m.rects {
		if ar.dest[id] == m.GoalSink {
			// Goal-satisfying positions are represented by the sink;
			// give the position an absorbing self-loop so the model
			// is deadlock-free if it is ever entered directly.
			ar.b.BeginChoice(mdp.StateID(id), -1, 0)
			ar.b.Transition(mdp.StateID(id), 1)
			continue
		}
		for a := action.Action(0); a < action.NumActions; a++ {
			if !opt.allowed(a) {
				continue
			}
			if !a.Enabled(d, opt.MaxAspect) {
				continue
			}
			if !bounds.ContainsRect(a.Apply(d)) {
				continue // forbidden: would leave the hazard bounds
			}
			ar.outs = action.AppendOutcomesMean(ar.outs[:0], d, a, ar.means.mean)
			live := 0
			for _, o := range ar.outs {
				if !mdp.IsZeroProb(o.P) {
					live++
				}
			}
			if live == 0 {
				continue
			}
			ar.b.BeginChoice(mdp.StateID(id), int(a), opt.ActionCost)
			for _, o := range ar.outs {
				if mdp.IsZeroProb(o.P) {
					continue
				}
				ar.b.Transition(ar.resolve(o.Droplet), o.P)
			}
		}
	}

	// Bookkeeping states: the init commit dispatches to the start (or the
	// goal sink, when the job starts already satisfied); sinks self-loop.
	ar.b.BeginChoice(m.Init, -1, 0)
	ar.b.Transition(ar.resolve(start), 1)
	ar.b.BeginChoice(m.GoalSink, -1, 0)
	ar.b.Transition(m.GoalSink, 1)
	ar.b.BeginChoice(m.HazardSink, -1, 0)
	ar.b.Transition(m.HazardSink, 1)

	m.M = ar.b.Build()
	n := m.M.NumStates()
	m.Goal = growBools(m.Goal, n)
	m.Goal[m.GoalSink] = true
	m.Hazard = growBools(m.Hazard, n)
	m.Hazard[m.HazardSink] = true
	return m, nil
}

// enumerate lays out a routing job's states, for Induce and InduceUnit
// alike: the position states shape by shape, then Init, GoalSink and
// HazardSink, plus the dest table that resolve reads. It returns the model
// without its MDP (m.M is nil) and the options with defaults applied.
func (ar *Arena) enumerate(bounds, start, goal geom.Rect, opt ModelOptions) (*Model, ModelOptions, error) {
	if !start.Valid() || !goal.Valid() || !bounds.Valid() {
		return nil, opt, fmt.Errorf("smg: invalid rectangle (start %v goal %v bounds %v)", start, goal, bounds)
	}
	if !bounds.ContainsRect(start) {
		return nil, opt, fmt.Errorf("smg: start %v outside hazard bounds %v", start, bounds)
	}
	if !bounds.ContainsRect(goal) {
		return nil, opt, fmt.Errorf("smg: goal %v outside hazard bounds %v", goal, bounds)
	}
	opt = opt.withDefaults()
	ar.builds++
	m := &ar.model
	*m = Model{bounds: bounds, spans: m.spans[:0], rects: m.rects[:0],
		Goal: m.Goal[:0], Hazard: m.Hazard[:0]}

	// Enumerate position states shape by shape, matching the reduced
	// state space S̃ ⊆ Δh of Sec. VI-C. Positions are laid out row-major
	// (x fastest) so StateOf can invert the enumeration arithmetically.
	ar.shapes = appendShapes(ar.shapes[:0], start.Width(), start.Height(), opt)
	for _, s := range ar.shapes {
		w, h := s[0], s[1]
		m.spans = append(m.spans, span{w: w, h: h, base: mdp.StateID(len(m.rects))})
		for ya := bounds.YA; ya+h-1 <= bounds.YB; ya++ {
			for xa := bounds.XA; xa+w-1 <= bounds.XB; xa++ {
				m.rects = append(m.rects, geom.Rect{XA: xa, YA: ya, XB: xa + w - 1, YB: ya + h - 1})
			}
		}
	}
	n := mdp.StateID(len(m.rects))
	m.Init, m.GoalSink, m.HazardSink = n, n+1, n+2

	startID, ok := m.StateOf(start)
	if !ok {
		return nil, opt, fmt.Errorf("smg: start %v not enumerated", start)
	}
	m.Start = startID

	// dest maps each position to where an outcome landing on it goes:
	// the goal sink if it satisfies the goal, the hazard sink if it
	// overlaps an obstacle (the start is exempt), else the position itself.
	ar.dest = resize(ar.dest, len(m.rects))
	for id, d := range m.rects {
		to := mdp.StateID(id)
		if GoalLabel(d, goal) {
			to = m.GoalSink
		} else if d != start {
			for _, b := range opt.Blocked {
				if d.Overlaps(b) {
					to = m.HazardSink
					break
				}
			}
		}
		ar.dest[id] = to
	}
	return m, opt, nil
}

// resolve maps an outcome rectangle to its destination state in the model
// enumerate last laid out. A goal-satisfying rectangle lies inside the
// bounds, so this agrees with testing goal, then hazard, then obstacles;
// outcomes outside the bounds or of a shape not enumerated (impossible with
// guard-closed shape enumeration) go to the hazard sink.
func (ar *Arena) resolve(d geom.Rect) mdp.StateID {
	id, ok := ar.model.StateOf(d)
	if !ok {
		return ar.model.HazardSink
	}
	return ar.dest[id]
}

// snapshot copies field over r into the arena's force slab, reading each
// cell exactly once, and returns a field backed by the copy, from which the
// frontier-mean tables sum each frontier once per window. The frontier of
// an enabled action lies inside its Apply(d), which lies inside the hazard
// bounds, so every MeanForce reads the same values in the same row-major
// order as from field itself and every probability is bit-identical. The
// returned field must be read only inside r.
func (ar *Arena) snapshot(r geom.Rect, field action.ForceField) action.ForceField {
	w := r.Width()
	n := w * r.Height()
	forces := resize(ar.forces, n)
	ar.forces = forces
	i := 0
	for y := r.YA; y <= r.YB; y++ {
		for x := r.XA; x <= r.XB; x++ {
			forces[i] = field(x, y)
			i++
		}
	}
	x0, y0 := r.XA, r.YA
	return func(x, y int) float64 {
		return forces[(y-y0)*w+(x-x0)]
	}
}

// frontierMeans holds one build's tables of frontier means for droplets of
// shape w×h over bounds. Every translation frontier of such a droplet is a
// 1×w row or an h×1 column segment, which several actions at several
// positions share; the tables sum each segment once per build instead of
// once per (position, action).
type frontierMeans struct {
	bounds geom.Rect
	w, h   int
	rows   []float64 // every 1×w row segment of bounds, row-major
	cols   []float64 // every h×1 column segment of bounds, row-major
	field  action.ForceField
}

// fill recomputes the tables from field. Each entry is MeanForce over its
// own rectangle, not a sliding window (which would reorder the additions),
// so every entry is bit-identical to summing the frontier on demand.
func (t *frontierMeans) fill(bounds geom.Rect, w, h int, field action.ForceField) {
	bw, bh := bounds.Width(), bounds.Height()
	t.bounds, t.w, t.h, t.field = bounds, w, h, field
	t.rows = resize(t.rows, bh*(bw-w+1))
	t.cols = resize(t.cols, (bh-h+1)*bw)
	i := 0
	for y := bounds.YA; y <= bounds.YB; y++ {
		for xa := bounds.XA; xa+w-1 <= bounds.XB; xa++ {
			t.rows[i] = action.MeanForce(geom.Rect{XA: xa, YA: y, XB: xa + w - 1, YB: y}, field)
			i++
		}
	}
	i = 0
	for ya := bounds.YA; ya+h-1 <= bounds.YB; ya++ {
		for x := bounds.XA; x <= bounds.XB; x++ {
			t.cols[i] = action.MeanForce(geom.Rect{XA: x, YA: ya, XB: x, YB: ya + h - 1}, field)
			i++
		}
	}
}

// mean returns MeanForce(fr, field), from the tables when fr is one of
// their segments. Other frontiers — the morphs' (w−1)- and (h−1)-cell
// segments and the frontiers of other shapes — are summed on demand.
func (t *frontierMeans) mean(fr geom.Rect) float64 {
	b := t.bounds
	if b.ContainsRect(fr) {
		if fr.YA == fr.YB && fr.XB-fr.XA+1 == t.w {
			return t.rows[(fr.YA-b.YA)*(b.XB-b.XA+2-t.w)+fr.XA-b.XA]
		}
		if fr.XA == fr.XB && fr.YB-fr.YA+1 == t.h {
			return t.cols[(fr.YA-b.YA)*(b.XB-b.XA+1)+fr.XA-b.XA]
		}
	}
	return action.MeanForce(fr, t.field)
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the entries are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growBools resizes a label slab to n cleared entries, reusing the backing
// array when possible.
func growBools(s []bool, n int) []bool {
	s = resize(s, n)
	clear(s)
	return s
}

// Induce builds the per-routing-job MDP on a fresh arena; the result owns
// its memory (nothing recycles it) and so has no aliasing caveats. Callers
// inducing many models back to back should hold an Arena and use its Induce
// method instead.
func Induce(bounds, start, goal geom.Rect, field action.ForceField, opt ModelOptions) (*Model, error) {
	return new(Arena).Induce(bounds, start, goal, field, opt)
}

// Policy converts a solved mdp.Strategy into the droplet routing strategy
// π: Δ → A of Sec. VI-C, mapping each droplet rectangle to its selected
// microfluidic action.
func (m *Model) Policy(st mdp.Strategy) map[geom.Rect]action.Action {
	out := make(map[geom.Rect]action.Action, len(m.rects))
	for id, d := range m.rects {
		act, ok := st.Action(m.M, mdp.StateID(id))
		if !ok || act < 0 {
			continue
		}
		out[d] = action.Action(act)
	}
	return out
}
