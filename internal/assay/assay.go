// Package assay models bioassays as sequencing graphs of microfluidic
// operations (Sec. VI-A): each operation MO = (type, pre, loc) has a type
// from Table III, a list of predecessor operations, and a placed center
// location produced by the planner. The package also provides generators for
// the benchmark bioassays used in the paper's evaluation (Sec. VII-A:
// Master-Mix, CEP, Serial Dilution, NuIP, COVID-RAT, COVID-PCR) and in the
// degradation-pattern study of Sec. III-C (ChIP, multiplex in-vitro, gene
// expression).
//
// The paper does not publish the exact MO lists of these protocols; the
// generators below follow the published protocol structure (operation mix,
// dependency shape, and length) so that routing workload — the quantity that
// drives every experiment — is representative. See DESIGN.md for the
// substitution rationale.
package assay

import (
	"fmt"
)

// Op is a microfluidic operation type (Table III).
type Op int

// Operation types and their droplet arities (in, out):
const (
	// Dis dispenses a droplet from a reservoir onto the biochip (0, 1).
	Dis Op = iota
	// Out outputs a droplet for collection; the droplet exits the biochip
	// (1, 0).
	Out
	// Dsc discards a droplet to waste; the droplet exits the biochip
	// (1, 0).
	Dsc
	// Mix merges two droplets into one (2, 1).
	Mix
	// Spt splits a droplet into two (1, 2).
	Spt
	// Dlt dilutes a droplet using another droplet: a mix immediately
	// followed by a split (2, 2).
	Dlt
	// Mag holds a droplet over a magnetic-bead/sensing module (1, 1).
	Mag
)

// String returns the paper's operation mnemonic.
func (o Op) String() string {
	switch o {
	case Dis:
		return "dis"
	case Out:
		return "out"
	case Dsc:
		return "dsc"
	case Mix:
		return "mix"
	case Spt:
		return "spt"
	case Dlt:
		return "dlt"
	case Mag:
		return "mag"
	}
	return "unknown"
}

// Arity returns the number of input and output droplets of the operation
// type, exactly as listed in Table III.
func (o Op) Arity() (in, out int) {
	switch o {
	case Dis:
		return 0, 1
	case Out, Dsc:
		return 1, 0
	case Mix:
		return 2, 1
	case Spt:
		return 1, 2
	case Dlt:
		return 2, 2
	case Mag:
		return 1, 1
	}
	return 0, 0
}

// Locs returns the number of placed center locations the operation needs:
// one for every type except split and dilute, whose two output droplets may
// be placed separately (for Dlt, loc[0] doubles as the mix site, per
// Alg. 1).
func (o Op) Locs() int {
	if o == Spt || o == Dlt {
		return 2
	}
	return 1
}

// Point is a real-valued module center location, e.g. (17.5, 2.5) for a 4×4
// module at (16,1,19,4).
type Point struct {
	X, Y float64
}

// MO is one microfluidic operation of a sequencing graph.
type MO struct {
	// ID is the operation's index within the assay (0-based).
	ID int
	// Type is the operation type.
	Type Op
	// Pre lists the IDs of predecessor operations supplying the input
	// droplets, in input order.
	Pre []int
	// Loc lists the placed center locations (len = Type.Locs()).
	Loc []Point
	// Area is the dispensed droplet area for Dis operations (e.g. 16 for
	// a 4×4 droplet); ignored for other types, whose droplet sizes are
	// derived from their inputs.
	Area int
	// Hold is the number of cycles a Mag operation detains its droplet at
	// the module (sensing/incubation time); ignored for other types.
	Hold int
}

// Assay is a bioassay: a named sequencing graph of operations.
type Assay struct {
	Name string
	MOs  []MO
}

// Validate checks that the assay is a well-formed sequencing graph: IDs are
// positional, predecessors precede their consumers (the graph is a DAG in
// topological order), arities and location counts match Table III, and every
// non-terminal droplet is consumed exactly once.
func (a *Assay) Validate() error {
	consumed := make(map[int]int) // producer MO id → droplets consumed
	for i, mo := range a.MOs {
		if mo.ID != i {
			return fmt.Errorf("assay %s: MO %d has ID %d (must be positional)", a.Name, i, mo.ID)
		}
		in, _ := mo.Type.Arity()
		if len(mo.Pre) != in {
			return fmt.Errorf("assay %s: %s M%d has %d predecessors, needs %d",
				a.Name, mo.Type, i, len(mo.Pre), in)
		}
		if len(mo.Loc) != mo.Type.Locs() {
			return fmt.Errorf("assay %s: %s M%d has %d locations, needs %d",
				a.Name, mo.Type, i, len(mo.Loc), mo.Type.Locs())
		}
		if mo.Type == Dis && mo.Area < 1 {
			return fmt.Errorf("assay %s: dis M%d has no droplet area", a.Name, i)
		}
		for _, p := range mo.Pre {
			if p < 0 || p >= i {
				return fmt.Errorf("assay %s: M%d depends on M%d (not topologically ordered)", a.Name, i, p)
			}
			consumed[p]++
		}
	}
	for i, mo := range a.MOs {
		_, out := mo.Type.Arity()
		if consumed[i] != out {
			return fmt.Errorf("assay %s: M%d produces %d droplets but %d are consumed",
				a.Name, i, out, consumed[i])
		}
	}
	return nil
}

// Len returns the number of operations.
func (a *Assay) Len() int { return len(a.MOs) }

// builder accumulates MOs with automatic ID assignment.
type builder struct {
	name string
	mos  []MO
}

func (b *builder) add(mo MO) int {
	mo.ID = len(b.mos)
	b.mos = append(b.mos, mo)
	return mo.ID
}

func (b *builder) dis(loc Point, area int) int {
	return b.add(MO{Type: Dis, Loc: []Point{loc}, Area: area})
}

func (b *builder) mix(a, c int, loc Point) int {
	return b.add(MO{Type: Mix, Pre: []int{a, c}, Loc: []Point{loc}})
}

func (b *builder) mag(pre int, loc Point, hold int) int {
	return b.add(MO{Type: Mag, Pre: []int{pre}, Loc: []Point{loc}, Hold: hold})
}

func (b *builder) dlt(a, c int, l0, l1 Point) int {
	return b.add(MO{Type: Dlt, Pre: []int{a, c}, Loc: []Point{l0, l1}})
}

func (b *builder) spt(pre int, l0, l1 Point) int {
	return b.add(MO{Type: Spt, Pre: []int{pre}, Loc: []Point{l0, l1}})
}

func (b *builder) out(pre int, loc Point) int {
	return b.add(MO{Type: Out, Pre: []int{pre}, Loc: []Point{loc}})
}

func (b *builder) dsc(pre int, loc Point) int {
	return b.add(MO{Type: Dsc, Pre: []int{pre}, Loc: []Point{loc}})
}

func (b *builder) assay() *Assay { return &Assay{Name: b.name, MOs: b.mos} }

// Layout computes canonical module placements for a W×H biochip, mirroring
// the planner's role: dispense reservoirs along the west and east edges,
// output/waste ports along the east edge, and processing modules spread over
// the interior.
type Layout struct {
	W, H int
	// ResOff, PortOff and ModOff rotate the reservoir, port and module
	// indexing (Reservoir(i) behaves like the zero layout's
	// Reservoir(i+ResOff), and so on). The zero offsets reproduce the
	// canonical placement; the random-workload generator (Mixture) offsets
	// each sub-assay differently so concurrent protocols spread over — and
	// contend for — the same physical sites instead of stacking onto
	// identical ones.
	ResOff, PortOff, ModOff int
}

// Reservoir returns the center of the i-th dispense site; sites alternate
// between the south and north edges (cf. the two dispense ports of Fig. 12)
// and walk eastward, staying clear of the interior module band.
func (l Layout) Reservoir(i int) Point {
	i += l.ResOff
	x := 2.5 + 6*float64(i/2%max(1, (l.W-10)/6))
	if i%2 == 0 {
		return Point{X: x, Y: 2.5}
	}
	return Point{X: x, Y: float64(l.H) - 1.5}
}

// Port returns the center of the i-th output/waste site on the east edge.
// Ports alternate between two lanes just off the interior module band (near
// the south-east and north-east corners), so exiting droplets drop out of
// the band and travel east without crossing active modules.
func (l Layout) Port(i int) Point {
	if (i+l.PortOff)%2 == 0 {
		return Point{X: float64(l.W) - 1.5, Y: 5.5}
	}
	return Point{X: float64(l.W) - 1.5, Y: float64(l.H) - 4.5}
}

// Module returns the center of the i-th interior processing slot. Modules
// occupy a horizontal band through the middle of the chip, well away from
// the edge reservoirs, so droplets resting at a module never obstruct a
// dispense area — the separation a real placement tool guarantees.
func (l Layout) Module(i int) Point {
	i += l.ModOff
	cols := max(1, (l.W-10)/8)
	c := i % cols
	r := (i / cols) % 2
	y := float64(l.H)/2 - 2.5 + 6*float64(r)
	return Point{X: 8.5 + 8*float64(c), Y: y}
}

// ModuleSlots returns the number of distinct interior module slots Module(i)
// can address before wrapping.
func (l Layout) ModuleSlots() int {
	return 2 * max(1, (l.W-10)/8)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
