package geom

import (
	"testing"
	"testing/quick"
)

func TestIntervalEmpty(t *testing.T) {
	if (Interval{3, 7}).Empty() {
		t.Error("Interval{3,7} should not be empty")
	}
	if !(Interval{7, 3}).Empty() {
		t.Error("Interval{7,3} should be empty")
	}
	if (Interval{4, 4}).Empty() {
		t.Error("singleton interval should not be empty")
	}
}

func TestIntervalIntersect(t *testing.T) {
	got := (Interval{1, 5}).Intersect(Interval{3, 9})
	if got != (Interval{3, 5}) {
		t.Errorf("Intersect = %v, want {3,5}", got)
	}
	if !(Interval{1, 2}).Intersect(Interval{5, 9}).Empty() {
		t.Error("disjoint intervals should intersect to empty")
	}
}

// TestRectPaperExample1 checks Example 1 of the paper: δ = (3,2,7,5) has
// w = 5, h = 4 and A = 20.
func TestRectPaperExample1(t *testing.T) {
	d := Rect{3, 2, 7, 5}
	if d.Width() != 5 {
		t.Errorf("Width = %d, want 5", d.Width())
	}
	if d.Height() != 4 {
		t.Errorf("Height = %d, want 4", d.Height())
	}
	if d.Area() != 20 {
		t.Errorf("Area = %d, want 20", d.Area())
	}
}

func TestRectAroundPaperExample4(t *testing.T) {
	// M1 dis with center (17.5, 2.5) and a 4×4 droplet occupies (16,1,19,4).
	got := RectAround(17.5, 2.5, 4, 4)
	want := Rect{16, 1, 19, 4}
	if got != want {
		t.Errorf("RectAround(17.5,2.5,4,4) = %v, want %v", got, want)
	}
	// M4 mag centered at (40.5, 15.5) with a 6×5 droplet is (38,14,43,18).
	got = RectAround(40.5, 15.5, 6, 5)
	want = Rect{38, 14, 43, 18}
	if got != want {
		t.Errorf("RectAround(40.5,15.5,6,5) = %v, want %v", got, want)
	}
}

func TestRectCenterInverse(t *testing.T) {
	f := func(xa, ya uint8, w, h uint8) bool {
		ww := int(w%10) + 1
		hh := int(h%10) + 1
		r := Rect{int(xa) + 1, int(ya) + 1, int(xa) + ww, int(ya) + hh}
		cx, cy := r.Center()
		return RectAround(cx, cy, ww, hh) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectOverlap(t *testing.T) {
	a := Rect{1, 1, 4, 4}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{4, 4, 6, 6}, true},
		{Rect{5, 5, 6, 6}, false},
		{Rect{2, 2, 3, 3}, true},
		{Rect{1, 5, 4, 8}, false},
		{Rect{5, 1, 8, 4}, false},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v,%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("Overlaps(%v,%v) = %v, want %v (symmetry)", c.b, a, got, c.want)
		}
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{1, 1, 5, 5}
	b := Rect{3, 4, 8, 9}
	got, ok := a.Intersect(b)
	if !ok || got != (Rect{3, 4, 5, 5}) {
		t.Errorf("Intersect = %v/%v, want (3,4,5,5)/true", got, ok)
	}
	if u := a.Union(b); u != (Rect{1, 1, 8, 9}) {
		t.Errorf("Union = %v, want (1,1,8,9)", u)
	}
	if _, ok := a.Intersect(Rect{6, 6, 7, 7}); ok {
		t.Error("disjoint rects should not intersect")
	}
}

func TestRectIntersectionIsContained(t *testing.T) {
	f := func(xa, ya, xb, yb, xc, yc, xd, yd uint8) bool {
		a := Rect{int(xa), int(ya), int(xa) + int(xb%20), int(ya) + int(yb%20)}
		b := Rect{int(xc), int(yc), int(xc) + int(xd%20), int(yc) + int(yd%20)}
		iv, ok := a.Intersect(b)
		if ok != a.Overlaps(b) {
			return false
		}
		if !ok {
			return true
		}
		return a.ContainsRect(iv) && b.ContainsRect(iv) &&
			a.Union(b).ContainsRect(a) && a.Union(b).ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectClamp(t *testing.T) {
	cases := []struct {
		in   Rect
		want Rect
	}{
		{Rect{-2, 3, 1, 6}, Rect{1, 3, 4, 6}},        // slides east
		{Rect{58, 28, 63, 31}, Rect{55, 27, 60, 30}}, // slides back inside
		{Rect{5, 5, 8, 8}, Rect{5, 5, 8, 8}},         // already inside
		{Rect{-5, -5, 100, 100}, Rect{1, 1, 60, 30}}, // larger than chip
		{Rect{0, 0, 3, 3}, Rect{1, 1, 4, 4}},         // corner slide
		{Rect{60, 30, 61, 31}, Rect{59, 29, 60, 30}}, // far corner slide
	}
	for _, c := range cases {
		if got := c.in.Clamp(60, 30); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRectClampPreservesSize(t *testing.T) {
	f := func(xa, ya int8, w, h uint8) bool {
		ww := int(w%8) + 1
		hh := int(h%8) + 1
		r := Rect{int(xa), int(ya), int(xa) + ww - 1, int(ya) + hh - 1}
		cl := r.Clamp(60, 30)
		return cl.Width() == ww && cl.Height() == hh &&
			cl.XA >= 1 && cl.YA >= 1 && cl.XB <= 60 && cl.YB <= 30
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirHorizontal(t *testing.T) {
	if !East.Horizontal() || !West.Horizontal() || North.Horizontal() || South.Horizontal() {
		t.Error("Horizontal misclassifies directions")
	}
}

func TestDirString(t *testing.T) {
	names := map[Dir]string{North: "N", South: "S", East: "E", West: "W"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("String(%d) = %q, want %q", d, d.String(), want)
		}
	}
}

func TestRectString(t *testing.T) {
	if s := (Rect{3, 2, 7, 5}).String(); s != "(3,2,7,5)" {
		t.Errorf("String = %q", s)
	}
	if !ZeroRect.IsZero() {
		t.Error("ZeroRect must be zero")
	}
	if (Rect{1, 1, 1, 1}).IsZero() {
		t.Error("unit rect is not zero")
	}
}

func TestTranslateExpand(t *testing.T) {
	r := Rect{3, 2, 7, 5}
	if got := r.Translate(2, -1); got != (Rect{5, 1, 9, 4}) {
		t.Errorf("Translate = %v", got)
	}
	if got := r.Expand(3); got != (Rect{0, -1, 10, 8}) {
		t.Errorf("Expand = %v", got)
	}
	if got := r.Expand(0); got != r {
		t.Errorf("Expand(0) changed rect: %v", got)
	}
}

func TestCellString(t *testing.T) {
	if c := (Cell{3, 7}); c.String() != "(3,7)" {
		t.Errorf("String = %q", c.String())
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{3, 2, 7, 5}
	if !r.Contains(Cell{3, 2}) || !r.Contains(Cell{7, 5}) || !r.Contains(Cell{5, 4}) {
		t.Error("corner/interior cells must be contained")
	}
	if r.Contains(Cell{2, 2}) || r.Contains(Cell{8, 5}) || r.Contains(Cell{5, 6}) {
		t.Error("outside cells must not be contained")
	}
	if !r.ContainsRect(Rect{4, 3, 6, 4}) {
		t.Error("inner rect must be contained")
	}
	if r.ContainsRect(Rect{4, 3, 8, 4}) {
		t.Error("overhanging rect must not be contained")
	}
}

func TestRectAroundNegativeCenters(t *testing.T) {
	// roundHalfUp's negative branch: centers below zero still produce the
	// right-sized rectangle.
	r := RectAround(-2.5, -2.5, 4, 4)
	if r.Width() != 4 || r.Height() != 4 {
		t.Errorf("negative-center rect = %v", r)
	}
	cx, cy := r.Center()
	if cx != -2.5 || cy != -2.5 {
		t.Errorf("center round trip = (%v,%v)", cx, cy)
	}
}
