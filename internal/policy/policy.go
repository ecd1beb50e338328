// Package policy holds the packed form of a droplet routing strategy
// π: Δ → A. A routing job's positions are the translates of a few droplet
// shapes inside its hazard window, so a strategy is stored as one dense
// action grid per shape, over the bounding box of that shape's positions,
// instead of as a hash map from rectangle to action: a lookup is a shape
// scan plus one index, a strategy costs a byte per grid cell, and a
// dihedral image of it is an index permutation of the same slab.
package policy

import (
	"fmt"
	"slices"

	"meda/internal/action"
	"meda/internal/geom"
)

// None marks a grid cell whose position has no action.
const None action.Action = 0xFF

// grid is one droplet shape's block of a policy: the w×h rectangles whose
// lower-left corners range over [x0, x0+cols) × [y0, y0+rows), row-major
// (x fastest) from acts[off].
type grid struct {
	w, h, x0, y0, cols, rows, off int
}

// rect returns the rectangle of the grid's cell (x, y).
func (g *grid) rect(x, y int) geom.Rect {
	return geom.Rect{XA: g.x0 + x, YA: g.y0 + y, XB: g.x0 + x + g.w - 1, YB: g.y0 + y + g.h - 1}
}

// Policy is a synthesized droplet routing strategy: the microfluidic action
// to issue for each droplet rectangle it covers. The zero value covers no
// rectangle. A Policy is immutable once built, so copies share their slabs
// freely.
type Policy struct {
	grids []grid
	acts  []action.Action
	n     int
}

// Len returns the number of rectangles the policy covers.
func (p Policy) Len() int { return p.n }

// Lookup returns the action for droplet rectangle d, and false when the
// policy covers no such rectangle.
//
//meda:hotpath
func (p Policy) Lookup(d geom.Rect) (action.Action, bool) {
	w, h := d.XB-d.XA+1, d.YB-d.YA+1
	for i := range p.grids {
		g := &p.grids[i]
		if g.w != w || g.h != h {
			continue
		}
		x, y := d.XA-g.x0, d.YA-g.y0
		if x < 0 || x >= g.cols || y < 0 || y >= g.rows {
			return 0, false
		}
		a := p.acts[g.off+y*g.cols+x]
		return a, a != None
	}
	return 0, false
}

// Walk calls fn for every rectangle the policy covers with its action,
// shape by shape in the order the policy was packed, each shape's
// positions row-major (x fastest).
func (p Policy) Walk(fn func(d geom.Rect, a action.Action)) {
	for i := range p.grids {
		g := &p.grids[i]
		for y := 0; y < g.rows; y++ {
			row := p.acts[g.off+y*g.cols : g.off+(y+1)*g.cols]
			for x, a := range row {
				if a != None {
					fn(g.rect(x, y), a)
				}
			}
		}
	}
}

// Diff describes a rectangle where p and want disagree — one covers it and
// the other does not, or they pick different actions — or returns "" when
// the two hold the same action at the same rectangles.
func (p Policy) Diff(want Policy) string {
	if p.n != want.n {
		return fmt.Sprintf("policy of %d positions, want %d", p.n, want.n)
	}
	diff := ""
	want.Walk(func(d geom.Rect, a action.Action) {
		if diff != "" {
			return
		}
		if g, ok := p.Lookup(d); !ok {
			diff = fmt.Sprintf("policy at %v: no action, want %v", d, a)
		} else if g != a {
			diff = fmt.Sprintf("policy at %v: %v, want %v", d, g, a)
		}
	})
	return diff
}

// Remap returns the image of p under f, an isometry of the integer plane
// (a dihedral map composed with a translation), with each action a
// replaced by conj[a]. Every shape's grid maps onto the grid of the image
// shape, so the image keeps p's slab layout and moves each cell to an index
// that is affine in the cell's coordinates.
func (p Policy) Remap(f func(geom.Rect) geom.Rect, conj *[action.NumActions]action.Action) Policy {
	if p.n == 0 {
		return Policy{}
	}
	out := Policy{grids: make([]grid, len(p.grids)), acts: make([]action.Action, len(p.acts)), n: p.n}
	for i := range p.grids {
		g := &p.grids[i]
		o, ex, ey := f(g.rect(0, 0)), f(g.rect(1, 0)), f(g.rect(0, 1))
		last := f(g.rect(g.cols-1, g.rows-1))
		ng := grid{w: o.Width(), h: o.Height(), x0: min(o.XA, last.XA), y0: min(o.YA, last.YA),
			cols: g.cols, rows: g.rows, off: g.off}
		if ex.XA == o.XA { // a step along x maps onto a step along y
			ng.cols, ng.rows = g.rows, g.cols
		}
		out.grids[i] = ng
		// The image of cell (x, y) has its corner at o + x·(ex−o) + y·(ey−o).
		base := ng.off + (o.YA-ng.y0)*ng.cols + o.XA - ng.x0
		sx := (ex.YA-o.YA)*ng.cols + ex.XA - o.XA
		sy := (ey.YA-o.YA)*ng.cols + ey.XA - o.XA
		for y := 0; y < g.rows; y++ {
			for x := 0; x < g.cols; x++ {
				a := p.acts[g.off+y*g.cols+x]
				if a != None {
					a = conj[a]
				}
				out.acts[base+x*sx+y*sy] = a
			}
		}
	}
	return out
}

// Packer assembles a Policy grid by grid. Its scratch slabs are reused
// from one Policy to the next, so a long-lived Packer allocates only the
// policies it returns. The zero value is ready for use.
type Packer struct {
	grids []grid
	cells []action.Action
	from  []int // per kept grid: its first cell's offset in cells, its row stride
}

// Shape opens the grid of w×h rectangles whose lower-left corners range
// over [x0, x0+cols) × [y0, y0+rows) and returns its cells, row-major
// (x fastest) and all None, for the caller to fill. The slice is valid
// until the next Shape or Policy call. A shape may be opened once per
// policy.
func (pk *Packer) Shape(w, h, x0, y0, cols, rows int) []action.Action {
	off := len(pk.cells)
	pk.cells = slices.Grow(pk.cells, cols*rows)[:off+cols*rows]
	cells := pk.cells[off:]
	for i := range cells {
		cells[i] = None
	}
	pk.grids = append(pk.grids, grid{w: w, h: h, x0: x0, y0: y0, cols: cols, rows: rows, off: off})
	return cells
}

// Policy packs the grids opened since the last call into a Policy, each
// trimmed to the bounding box of its filled cells (a grid with none is
// dropped), and resets the Packer.
func (pk *Packer) Policy() Policy {
	var p Policy
	size := 0
	kept := pk.grids[:0]
	pk.from = pk.from[:0]
	for _, g := range pk.grids {
		xa, ya, xb, yb := g.cols, g.rows, -1, -1
		for y := 0; y < g.rows; y++ {
			for x, a := range pk.cells[g.off+y*g.cols : g.off+(y+1)*g.cols] {
				if a != None {
					xa, ya, xb, yb = min(xa, x), min(ya, y), max(xb, x), max(yb, y)
					p.n++
				}
			}
		}
		if xb < 0 {
			continue
		}
		pk.from = append(pk.from, g.off+ya*g.cols+xa, g.cols)
		kept = append(kept, grid{w: g.w, h: g.h, x0: g.x0 + xa, y0: g.y0 + ya,
			cols: xb - xa + 1, rows: yb - ya + 1, off: size})
		size += (xb - xa + 1) * (yb - ya + 1)
	}
	if p.n > 0 {
		p.grids = slices.Clone(kept)
		p.acts = make([]action.Action, size)
		for i, g := range p.grids {
			src, stride := pk.from[2*i], pk.from[2*i+1]
			for y := 0; y < g.rows; y++ {
				copy(p.acts[g.off+y*g.cols:g.off+(y+1)*g.cols], pk.cells[src+y*stride:])
			}
		}
	}
	pk.grids, pk.cells = pk.grids[:0], pk.cells[:0]
	return p
}

// Entry is one rectangle of a policy and its action.
type Entry struct {
	D geom.Rect
	A action.Action
}

// Of packs a policy from its entries; of two entries for one rectangle the
// later wins. Shapes are packed in the order of their first entry.
func Of(entries []Entry) Policy {
	type box struct{ w, h, xa, ya, xb, yb int }
	var boxes []box
	for _, e := range entries {
		w, h := e.D.Width(), e.D.Height()
		i := slices.IndexFunc(boxes, func(b box) bool { return b.w == w && b.h == h })
		if i < 0 {
			boxes = append(boxes, box{w, h, e.D.XA, e.D.YA, e.D.XA, e.D.YA})
			continue
		}
		b := &boxes[i]
		b.xa, b.ya, b.xb, b.yb = min(b.xa, e.D.XA), min(b.ya, e.D.YA), max(b.xb, e.D.XA), max(b.yb, e.D.YA)
	}
	var pk Packer
	for _, b := range boxes {
		pk.Shape(b.w, b.h, b.xa, b.ya, b.xb-b.xa+1, b.yb-b.ya+1)
	}
	for _, e := range entries {
		for i := range pk.grids {
			if g := &pk.grids[i]; g.w == e.D.Width() && g.h == e.D.Height() {
				pk.cells[g.off+(e.D.YA-g.y0)*g.cols+e.D.XA-g.x0] = e.A
				break
			}
		}
	}
	return pk.Policy()
}
