// Package plan implements the bioassay planner the routing framework sits
// on top of: "a synthesis tool maps fluidic operations to fluidic modules on
// the electrode array" and "the SG is preprocessed by a planner that
// determines the dependencies and module placements of MOs" (Sec. II-B,
// VI-A). The planner takes a location-free sequencing graph and produces a
// placed assay.Assay:
//
//   - dispenses are bound to edge reservoirs,
//   - outputs/discards are bound to the edge exit ports,
//   - processing operations (mix, split, dilute, mag) are bound to interior
//     module slots using list scheduling and lifetime analysis, so that two
//     operations whose droplets may coexist never share a slot, and
//   - among conflict-free slots, each operation prefers the slot closest to
//     its predecessors, keeping droplet routes short.
//
// The result compiles with route.Compile and executes on the simulator; the
// benchmark generators in internal/assay are hand-placed instances of the
// same discipline.
package plan

import (
	"fmt"
	"math"

	"meda/internal/assay"
)

// Op is one location-free microfluidic operation.
type Op struct {
	Type assay.Op
	// Pre lists predecessor operation indices, in input order.
	Pre []int
	// Area is the dispensed droplet area (Dis only).
	Area int
	// Hold is the detention time (Mag only).
	Hold int
}

// Graph is a location-free sequencing graph.
type Graph struct {
	Name string
	Ops  []Op
}

// Validate checks the graph shape (arities, topological order, single
// consumption) without requiring locations.
func (g Graph) Validate() error {
	consumed := make(map[int]int)
	for i, op := range g.Ops {
		in, _ := op.Type.Arity()
		if len(op.Pre) != in {
			return fmt.Errorf("plan: %s op %d has %d predecessors, needs %d", op.Type, i, len(op.Pre), in)
		}
		if op.Type == assay.Dis && op.Area < 1 {
			return fmt.Errorf("plan: dis op %d has no droplet area", i)
		}
		for _, p := range op.Pre {
			if p < 0 || p >= i {
				return fmt.Errorf("plan: op %d depends on %d (not topologically ordered)", i, p)
			}
			consumed[p]++
		}
	}
	for i, op := range g.Ops {
		_, out := op.Type.Arity()
		if consumed[i] != out {
			return fmt.Errorf("plan: op %d produces %d droplets but %d are consumed", i, out, consumed[i])
		}
	}
	return nil
}

// levels computes each operation's ASAP level (longest path from a source).
func (g Graph) levels() []int {
	lv := make([]int, len(g.Ops))
	for i, op := range g.Ops {
		for _, p := range op.Pre {
			if lv[p]+1 > lv[i] {
				lv[i] = lv[p] + 1
			}
		}
	}
	return lv
}

// consumersOf maps producer index → consumer indices in claim order.
func (g Graph) consumersOf() [][]int {
	out := make([][]int, len(g.Ops))
	for i, op := range g.Ops {
		for _, p := range op.Pre {
			out[p] = append(out[p], i)
		}
	}
	return out
}

// slot is one interior module slot. The module band has two rows per
// column; droplets dispensed at the edges reach the band along vertical
// corridors through the columns. Bookings therefore distinguish two kinds of
// conflict: two operations may never share the same slot while their
// droplets coexist, and an operation fed from a reservoir (a dispense
// predecessor) additionally needs its whole column clear — a droplet parked
// in the other row would wall off the corridor.
type slot struct {
	loc assay.Point
	col int
	row int
}

type booking struct {
	from, to int
	row      int
	corridor bool
}

type columnBook struct {
	bookings map[int][]booking
}

func newColumnBook() *columnBook { return &columnBook{bookings: map[int][]booking{}} }

// free reports whether a booking (col, row, [from,to], corridor) conflicts
// with nothing: same-row overlaps are always conflicts; cross-row overlaps
// conflict when either side needs the corridor.
func (cb *columnBook) free(col, row, from, to int, corridor bool) bool {
	for _, b := range cb.bookings[col] {
		if from > b.to || b.from > to {
			continue
		}
		if b.row == row || b.corridor || corridor {
			return false
		}
	}
	return true
}

func (cb *columnBook) book(col, row, from, to int, corridor bool) {
	cb.bookings[col] = append(cb.bookings[col], booking{from: from, to: to, row: row, corridor: corridor})
}

// Placer binds a graph's operations to chip resources.
type Placer struct {
	W, H int
	// layout provides the canonical resource geometry.
	layout assay.Layout
	slots  []*slot
	book   *columnBook
	// round-robin counters for reservoirs and ports.
	nextReservoir int
	nextPort      int
}

// NewPlacer returns a planner for a W×H biochip.
func NewPlacer(w, h int) *Placer {
	p := &Placer{W: w, H: h, layout: assay.Layout{W: w, H: h}, book: newColumnBook()}
	n := p.layout.ModuleSlots()
	cols := n / 2
	for i := 0; i < n; i++ {
		p.slots = append(p.slots, &slot{loc: p.layout.Module(i), col: i % cols, row: i / cols})
	}
	return p
}

// Place schedules and places the graph, returning a fully located assay.
func (p *Placer) Place(g Graph) (*assay.Assay, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	lv := g.levels()
	consumers := g.consumersOf()

	// An operation's module stays occupied from its own level until its
	// outputs are claimed: the droplet rests at the module and departs
	// when the latest consumer activates, so the slot frees at that
	// consumer's level (the consumer's own site covers the travel).
	releaseLevel := func(i int) int {
		to := lv[i]
		for _, c := range consumers[i] {
			if lv[c]-1 > to {
				to = lv[c] - 1
			}
		}
		return to
	}

	placed := make([]assay.MO, len(g.Ops))
	locOf := make([]assay.Point, len(g.Ops)) // primary location per op

	for i, op := range g.Ops {
		mo := assay.MO{ID: i, Type: op.Type, Pre: append([]int(nil), op.Pre...), Area: op.Area, Hold: op.Hold}
		switch op.Type {
		case assay.Dis:
			loc := p.layout.Reservoir(p.nextReservoir)
			p.nextReservoir++
			mo.Loc = []assay.Point{loc}
			locOf[i] = loc
		case assay.Out, assay.Dsc:
			loc := p.layout.Port(p.nextPort)
			p.nextPort++
			mo.Loc = []assay.Point{loc}
			locOf[i] = loc
		default:
			need := op.Type.Locs()
			corridor := false
			for _, pre := range op.Pre {
				if g.Ops[pre].Type == assay.Dis {
					corridor = true
				}
			}
			locs, err := p.reserve(need, lv[i], releaseLevel(i), corridor, op, locOf)
			if err != nil {
				return nil, fmt.Errorf("plan: op %d (%s): %w", i, op.Type, err)
			}
			mo.Loc = locs
			locOf[i] = locs[0]
		}
		placed[i] = mo
	}
	a := &assay.Assay{Name: g.Name, MOs: placed}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("plan: placed assay invalid: %w", err)
	}
	return a, nil
}

// reserve books `need` module slots over [from, to], preferring slots
// closest to the operation's predecessors.
func (p *Placer) reserve(need, from, to int, corridor bool, op Op, locOf []assay.Point) ([]assay.Point, error) {
	// Anchor: mean predecessor location (chip center for sources).
	ax, ay := float64(p.W)/2, float64(p.H)/2
	if len(op.Pre) > 0 {
		ax, ay = 0, 0
		for _, pre := range op.Pre {
			ax += locOf[pre].X
			ay += locOf[pre].Y
		}
		ax /= float64(len(op.Pre))
		ay /= float64(len(op.Pre))
	}
	type cand struct {
		s    *slot
		dist float64
	}
	var cands []cand
	for _, s := range p.slots {
		if p.book.free(s.col, s.row, from, to, corridor) {
			d := math.Abs(s.loc.X-ax) + math.Abs(s.loc.Y-ay)
			cands = append(cands, cand{s, d})
		}
	}
	if len(cands) < need {
		return nil, fmt.Errorf("need %d free module slots in levels [%d,%d], have %d of %d",
			need, from, to, len(cands), len(p.slots))
	}
	// Selection sort by distance (stable for ties by slot order).
	for i := 0; i < need; i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].dist < cands[best].dist {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	out := make([]assay.Point, need)
	usedSlot := map[*slot]bool{}
	firstCol := -1
	for i := 0; i < need; i++ {
		pick := -1
		for j, c := range cands {
			if usedSlot[c.s] {
				continue
			}
			if pick < 0 {
				pick = j
				continue
			}
			// A split/dilution's second site prefers the same column as
			// the first (its two droplets belong to one operation), then
			// the nearest slot.
			better := c.dist < cands[pick].dist
			if firstCol >= 0 {
				if (c.s.col == firstCol) != (cands[pick].s.col == firstCol) {
					better = c.s.col == firstCol
				}
			}
			if better {
				pick = j
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("need %d free module slots in levels [%d,%d]", need, from, to)
		}
		chosen := cands[pick].s
		p.book.book(chosen.col, chosen.row, from, to, corridor)
		usedSlot[chosen] = true
		if firstCol < 0 {
			firstCol = chosen.col
		}
		out[i] = chosen.loc
	}
	return out, nil
}
