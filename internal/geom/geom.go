// Package geom provides the discrete geometry primitives used throughout the
// MEDA biochip model: microelectrode-cell coordinates, axis-aligned rectangles
// over the microelectrode grid, discrete intervals, and compass directions.
//
// Following the paper's convention, the unit of length is the center distance
// between two adjacent microelectrodes (the MC pitch), and chip coordinates
// are 1-based: x ∈ [1, W], y ∈ [1, H]. The all-zero rectangle (0,0,0,0) is
// reserved for "off-chip" (e.g. a droplet before dispensing).
package geom

import "fmt"

// Cell is the integer coordinate of a single microelectrode cell (MC).
type Cell struct {
	X, Y int
}

// String returns the cell formatted as "(x,y)".
func (c Cell) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Interval is a discrete interval [Lo, Hi] ⊂ ℕ (inclusive on both ends),
// written ⟦Lo, Hi⟧ in the paper. An interval with Hi < Lo is empty.
type Interval struct {
	Lo, Hi int
}

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Hi < iv.Lo }

// Intersect returns the intersection of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{max(iv.Lo, o.Lo), min(iv.Hi, o.Hi)}
}

// Rect is an axis-aligned rectangle of microelectrode cells, described by its
// lower-left corner (XA, YA) and upper-right corner (XB, YB), both inclusive.
// This is exactly the droplet tuple δ = (x_a, y_a, x_b, y_b) of the paper.
type Rect struct {
	XA, YA, XB, YB int
}

// RectAround returns the w×h rectangle whose center is closest to the real
// point (cx, cy). It mirrors the paper's convention that a module with center
// location loc=(17.5, 2.5) and a 4×4 droplet occupies (16,1,19,4).
func RectAround(cx, cy float64, w, h int) Rect {
	xa := int(roundHalfUp(cx - float64(w)/2 + 0.5))
	ya := int(roundHalfUp(cy - float64(h)/2 + 0.5))
	return Rect{xa, ya, xa + w - 1, ya + h - 1}
}

func roundHalfUp(v float64) float64 {
	f := float64(int(v))
	if v >= 0 {
		if v-f >= 0.5 {
			return f + 1
		}
		return f
	}
	if f-v > 0.5 {
		return f - 1
	}
	return f
}

// ZeroRect is the off-chip sentinel rectangle (0,0,0,0).
var ZeroRect = Rect{}

// IsZero reports whether the rectangle is the off-chip sentinel.
func (r Rect) IsZero() bool { return r == ZeroRect }

// Valid reports whether the corners are ordered (XB ≥ XA and YB ≥ YA).
func (r Rect) Valid() bool { return r.XB >= r.XA && r.YB >= r.YA }

// Width returns w = XB − XA + 1.
func (r Rect) Width() int { return r.XB - r.XA + 1 }

// Height returns h = YB − YA + 1.
func (r Rect) Height() int { return r.YB - r.YA + 1 }

// Area returns the number of cells w·h.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Center returns the real-valued center ((XA+XB)/2, (YA+YB)/2).
func (r Rect) Center() (cx, cy float64) {
	return float64(r.XA+r.XB) / 2, float64(r.YA+r.YB) / 2
}

// XRange returns the horizontal extent ⟦XA, XB⟧.
func (r Rect) XRange() Interval { return Interval{r.XA, r.XB} }

// YRange returns the vertical extent ⟦YA, YB⟧.
func (r Rect) YRange() Interval { return Interval{r.YA, r.YB} }

// Contains reports whether the cell lies inside the rectangle.
func (r Rect) Contains(c Cell) bool {
	return r.XA <= c.X && c.X <= r.XB && r.YA <= c.Y && c.Y <= r.YB
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	return r.XA <= o.XA && o.XB <= r.XB && r.YA <= o.YA && o.YB <= r.YB
}

// Overlaps reports whether the two rectangles share at least one cell.
func (r Rect) Overlaps(o Rect) bool {
	return r.XA <= o.XB && o.XA <= r.XB && r.YA <= o.YB && o.YA <= r.YB
}

// Intersect returns the common sub-rectangle and whether it is non-empty.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	x := r.XRange().Intersect(o.XRange())
	y := r.YRange().Intersect(o.YRange())
	if x.Empty() || y.Empty() {
		return ZeroRect, false
	}
	return Rect{x.Lo, y.Lo, x.Hi, y.Hi}, true
}

// Union returns the smallest rectangle containing both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		min(r.XA, o.XA), min(r.YA, o.YA),
		max(r.XB, o.XB), max(r.YB, o.YB),
	}
}

// Expand grows the rectangle by m cells on every side.
func (r Rect) Expand(m int) Rect {
	return Rect{r.XA - m, r.YA - m, r.XB + m, r.YB + m}
}

// Clamp restricts the rectangle to the chip bounds ⟦1,W⟧×⟦1,H⟧, preserving
// its size where possible by translating, and shrinking only if it does not
// fit at all.
func (r Rect) Clamp(w, h int) Rect {
	out := r
	if out.Width() > w {
		out.XA, out.XB = 1, w
	} else {
		if out.XA < 1 {
			out.XB += 1 - out.XA
			out.XA = 1
		}
		if out.XB > w {
			out.XA -= out.XB - w
			out.XB = w
		}
	}
	if out.Height() > h {
		out.YA, out.YB = 1, h
	} else {
		if out.YA < 1 {
			out.YB += 1 - out.YA
			out.YA = 1
		}
		if out.YB > h {
			out.YA -= out.YB - h
			out.YB = h
		}
	}
	return out
}

// Translate returns the rectangle shifted by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{r.XA + dx, r.YA + dy, r.XB + dx, r.YB + dy}
}

// Less orders rectangles lexicographically by (XA, YA, XB, YB).
func (r Rect) Less(o Rect) bool {
	switch {
	case r.XA != o.XA:
		return r.XA < o.XA
	case r.YA != o.YA:
		return r.YA < o.YA
	case r.XB != o.XB:
		return r.XB < o.XB
	}
	return r.YB < o.YB
}

// String returns the paper-style tuple "(xa,ya,xb,yb)".
func (r Rect) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", r.XA, r.YA, r.XB, r.YB)
}

// Dir is a compass direction. The paper uses the cardinal directions N, S, E,
// W for movement analysis; ordinal directions are composed of two cardinals.
type Dir uint8

// Cardinal directions.
const (
	North Dir = iota
	South
	East
	West
)

// String returns the single-letter name used in the paper.
func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case South:
		return "S"
	case East:
		return "E"
	case West:
		return "W"
	}
	return "?"
}

// Horizontal reports whether the direction is East or West.
func (d Dir) Horizontal() bool { return d == East || d == West }
