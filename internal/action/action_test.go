package action

import (
	"math"
	"testing"
	"testing/quick"

	"meda/internal/geom"
	"meda/internal/randx"
)

// cardinals lists the four cardinal directions in the paper's N,S,E,W order.
var cardinals = [4]geom.Dir{geom.North, geom.South, geom.East, geom.West}

// delta is the running-example droplet δ = (3,2,7,5) used by Examples 1–3.
var delta = geom.Rect{XA: 3, YA: 2, XB: 7, YB: 5}

func TestAlphabetSize(t *testing.T) {
	if len(All()) != 20 {
		t.Fatalf("|A| = %d, want 20", len(All()))
	}
	counts := map[Class]int{}
	for _, a := range All() {
		counts[a.Class()]++
	}
	for _, cls := range []Class{Cardinal, Double, Ordinal, Widen, Heighten} {
		if counts[cls] != 4 {
			t.Errorf("|%v| = %d, want 4", cls, counts[cls])
		}
	}
}

func TestActionNames(t *testing.T) {
	if MoveN.String() != "aN" || MoveNE.String() != "aNE" ||
		WidenNE.String() != "aWidenNE" || HeightenSW.String() != "aHeightenSW" {
		t.Error("action names wrong")
	}
	if Action(77).String() != "a?77" {
		t.Error("out-of-range action name wrong")
	}
	if Class(9).String() != "unknown" {
		t.Error("unknown class name wrong")
	}
}

// TestFrontierTableII exhaustively checks every row of Table II against the
// running-example droplet δ = (3,2,7,5) (so xa=3, ya=2, xb=7, yb=5, and the
// shorthand x+ = x+1, x− = x−1).
func TestFrontierTableII(t *testing.T) {
	type row struct {
		a        Action
		dir      geom.Dir
		want     geom.Rect
		wantSize int
	}
	rows := []row{
		{MoveN, geom.North, rect(3, 6, 7, 6), 5},      // ⟦xa,xb⟧×⟦yb+,yb+⟧, w
		{MoveS, geom.South, rect(3, 1, 7, 1), 5},      // ⟦xa,xb⟧×⟦ya−,ya−⟧
		{MoveE, geom.East, rect(8, 2, 8, 5), 4},       // ⟦xb+,xb+⟧×⟦ya,yb⟧, h
		{MoveW, geom.West, rect(2, 2, 2, 5), 4},       // ⟦xa−,xa−⟧×⟦ya,yb⟧
		{MoveNE, geom.North, rect(4, 6, 8, 6), 5},     // ⟦xa+,xb+⟧×⟦yb+,yb+⟧
		{MoveNE, geom.East, rect(8, 3, 8, 6), 4},      // ⟦xb+,xb+⟧×⟦ya+,yb+⟧
		{MoveNW, geom.North, rect(2, 6, 6, 6), 5},     // ⟦xa−,xb−⟧×⟦yb+,yb+⟧
		{MoveNW, geom.West, rect(2, 3, 2, 6), 4},      // ⟦xa−,xa−⟧×⟦ya+,yb+⟧
		{MoveSE, geom.South, rect(4, 1, 8, 1), 5},     // ⟦xa+,xb+⟧×⟦ya−,ya−⟧
		{MoveSE, geom.East, rect(8, 1, 8, 4), 4},      // ⟦xb+,xb+⟧×⟦ya−,yb−⟧
		{MoveSW, geom.South, rect(2, 1, 6, 1), 5},     // ⟦xa−,xb−⟧×⟦ya−,ya−⟧
		{MoveSW, geom.West, rect(2, 1, 2, 4), 4},      // ⟦xa−,xa−⟧×⟦ya−,yb−⟧
		{WidenNE, geom.East, rect(8, 3, 8, 5), 3},     // ⟦xb+,xb+⟧×⟦ya+,yb⟧, h−1
		{WidenNW, geom.West, rect(2, 3, 2, 5), 3},     // ⟦xa−,xa−⟧×⟦ya+,yb⟧
		{WidenSE, geom.East, rect(8, 2, 8, 4), 3},     // ⟦xb+,xb+⟧×⟦ya,yb−⟧
		{WidenSW, geom.West, rect(2, 2, 2, 4), 3},     // ⟦xa−,xa−⟧×⟦ya,yb−⟧
		{HeightenNE, geom.North, rect(4, 6, 7, 6), 4}, // ⟦xa+,xb⟧×⟦yb+,yb+⟧, w−1
		{HeightenNW, geom.North, rect(3, 6, 6, 6), 4}, // ⟦xa,xb−⟧×⟦yb+,yb+⟧
		{HeightenSE, geom.South, rect(4, 1, 7, 1), 4}, // ⟦xa+,xb⟧×⟦ya−,ya−⟧
		{HeightenSW, geom.South, rect(3, 1, 6, 1), 4}, // ⟦xa,xb−⟧×⟦ya−,ya−⟧
	}
	for _, r := range rows {
		got, ok := Frontier(delta, r.a, r.dir)
		if !ok {
			t.Errorf("%v dir %v: frontier unexpectedly empty", r.a, r.dir)
			continue
		}
		if got != r.want {
			t.Errorf("%v dir %v: frontier = %v, want %v", r.a, r.dir, got, r.want)
		}
		if got.Area() != r.wantSize {
			t.Errorf("%v dir %v: |Fr| = %d, want %d", r.a, r.dir, got.Area(), r.wantSize)
		}
	}
}

// TestFrontierEmptyCells checks the ∅ entries of Table II: cardinal moves
// have no frontier in orthogonal directions, widen morphs none vertically,
// heighten morphs none horizontally.
func TestFrontierEmptyCells(t *testing.T) {
	type probe struct {
		a   Action
		dir geom.Dir
	}
	empties := []probe{
		{MoveN, geom.East}, {MoveN, geom.West}, {MoveN, geom.South},
		{MoveS, geom.East}, {MoveE, geom.North}, {MoveE, geom.West},
		{MoveW, geom.South}, {MoveNE, geom.South}, {MoveNE, geom.West},
		{WidenNE, geom.North}, {WidenNE, geom.South}, {WidenNE, geom.West},
		{WidenSW, geom.East}, {HeightenNE, geom.East}, {HeightenNE, geom.South},
		{HeightenSW, geom.North}, {MoveNN, geom.East}, {MoveEE, geom.North},
	}
	for _, p := range empties {
		if _, ok := Frontier(delta, p.a, p.dir); ok {
			t.Errorf("Frontier(%v, %v) should be empty", p.a, p.dir)
		}
	}
}

// TestFrontierExample2 is Example 2 of the paper verbatim.
func TestFrontierExample2(t *testing.T) {
	frE, ok := Frontier(delta, MoveNE, geom.East)
	if !ok || frE != (rect(8, 3, 8, 6)) {
		t.Errorf("Fr(δ;aNE,E) = %v, want ⟦8,8⟧×⟦3,6⟧", frE)
	}
	frN, ok := Frontier(delta, MoveNE, geom.North)
	if !ok || frN != (rect(4, 6, 8, 6)) {
		t.Errorf("Fr(δ;aNE,N) = %v, want ⟦4,8⟧×⟦6,6⟧", frN)
	}
}

// TestFrontierSizesMatchTableII checks the |Fr| column formulas on random
// droplets: cardinal N/S frontiers have w cells, E/W have h cells; widen
// frontiers h−1; heighten frontiers w−1.
func TestFrontierSizesMatchTableII(t *testing.T) {
	f := func(xa, ya uint8, w8, h8 uint8) bool {
		w := int(w8%6) + 2
		h := int(h8%6) + 2
		d := geom.Rect{XA: int(xa) + 3, YA: int(ya) + 3, XB: int(xa) + 2 + w, YB: int(ya) + 2 + h}
		check := func(a Action, dir geom.Dir, want int) bool {
			fr, ok := Frontier(d, a, dir)
			return ok && fr.Area() == want
		}
		return check(MoveN, geom.North, w) &&
			check(MoveS, geom.South, w) &&
			check(MoveE, geom.East, h) &&
			check(MoveW, geom.West, h) &&
			check(MoveNE, geom.North, w) && check(MoveNE, geom.East, h) &&
			check(MoveSW, geom.South, w) && check(MoveSW, geom.West, h) &&
			check(WidenNE, geom.East, h-1) &&
			check(WidenSW, geom.West, h-1) &&
			check(HeightenNW, geom.North, w-1) &&
			check(HeightenSE, geom.South, w-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFrontierDisjointFromDroplet: a frontier always lies outside the
// current droplet (it is the set of cells pulling the droplet onward).
func TestFrontierDisjointFromDroplet(t *testing.T) {
	for _, a := range All() {
		for _, dir := range cardinals {
			fr, ok := Frontier(delta, a, dir)
			if !ok {
				continue
			}
			if fr.Overlaps(delta) {
				t.Errorf("%v dir %v: frontier %v overlaps droplet %v", a, dir, fr, delta)
			}
		}
	}
}

// TestFrontierInsideTarget: every frontier cell belongs to the actuation
// pattern a(δ) — the pattern is what pulls the droplet.
func TestFrontierInsideTarget(t *testing.T) {
	for _, a := range All() {
		if a.Class() == Double {
			continue // double-step frontier is the first step's pattern
		}
		target := a.Apply(delta)
		for _, dir := range cardinals {
			fr, ok := Frontier(delta, a, dir)
			if !ok {
				continue
			}
			if !target.ContainsRect(fr) {
				t.Errorf("%v dir %v: frontier %v outside target %v", a, dir, fr, target)
			}
		}
	}
}

func TestApplyGeometry(t *testing.T) {
	cases := []struct {
		a    Action
		want geom.Rect
	}{
		{MoveN, rect(3, 3, 7, 6)},
		{MoveS, rect(3, 1, 7, 4)},
		{MoveE, rect(4, 2, 8, 5)},
		{MoveW, rect(2, 2, 6, 5)},
		{MoveNN, rect(3, 4, 7, 7)},
		{MoveEE, rect(5, 2, 9, 5)},
		{MoveNE, rect(4, 3, 8, 6)},
		{MoveSW, rect(2, 1, 6, 4)},
		{WidenNE, rect(3, 3, 8, 5)},
		{WidenNW, rect(2, 3, 7, 5)},
		{WidenSE, rect(3, 2, 8, 4)},
		{WidenSW, rect(2, 2, 7, 4)},
		{HeightenNE, rect(4, 2, 7, 6)},
		{HeightenNW, rect(3, 2, 6, 6)},
		{HeightenSE, rect(4, 1, 7, 5)},
		{HeightenSW, rect(3, 1, 6, 5)},
	}
	for _, c := range cases {
		if got := c.a.Apply(delta); got != c.want {
			t.Errorf("%v(δ) = %v, want %v", c.a, got, c.want)
		}
	}
}

// TestApplyShapeInvariants: movements preserve shape; widen adds a column
// and removes a row; heighten adds a row and removes a column.
func TestApplyShapeInvariants(t *testing.T) {
	f := func(xa, ya uint8, w8, h8 uint8) bool {
		w := int(w8%7) + 2
		h := int(h8%7) + 2
		d := geom.Rect{XA: int(xa) + 3, YA: int(ya) + 3, XB: int(xa) + 2 + w, YB: int(ya) + 2 + h}
		for _, a := range All() {
			nd := a.Apply(d)
			if !nd.Valid() {
				return false
			}
			switch a.Class() {
			case Cardinal, Double, Ordinal:
				if nd.Width() != w || nd.Height() != h {
					return false
				}
			case Widen:
				if nd.Width() != w+1 || nd.Height() != h-1 {
					return false
				}
			case Heighten:
				if nd.Width() != w-1 || nd.Height() != h+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGuardsPaperExample: r = 3/2 with δ = (3,2,7,5) enables heighten (g↑=1)
// and disables widen (g↓=0).
func TestGuardsPaperExample(t *testing.T) {
	const r = 1.5
	for _, a := range []Action{HeightenNE, HeightenNW, HeightenSE, HeightenSW} {
		if !a.Enabled(delta, r) {
			t.Errorf("%v should be enabled (g↑=1)", a)
		}
	}
	for _, a := range []Action{WidenNE, WidenNW, WidenSE, WidenSW} {
		if a.Enabled(delta, r) {
			t.Errorf("%v should be disabled (g↓=0)", a)
		}
	}
}

func TestDoubleStepGuards(t *testing.T) {
	small := geom.Rect{XA: 1, YA: 1, XB: 3, YB: 3} // 3×3
	big := geom.Rect{XA: 1, YA: 1, XB: 4, YB: 4}   // 4×4
	wide := geom.Rect{XA: 1, YA: 1, XB: 5, YB: 3}  // 5×3
	for _, a := range []Action{MoveNN, MoveSS, MoveEE, MoveWW} {
		if a.Enabled(small, DefaultMaxAspect) {
			t.Errorf("%v must be disabled for 3×3", a)
		}
		if !a.Enabled(big, DefaultMaxAspect) {
			t.Errorf("%v must be enabled for 4×4", a)
		}
	}
	if !MoveEE.Enabled(wide, DefaultMaxAspect) || !MoveWW.Enabled(wide, DefaultMaxAspect) {
		t.Error("horizontal double step must be enabled for w=5")
	}
	if MoveNN.Enabled(wide, DefaultMaxAspect) || MoveSS.Enabled(wide, DefaultMaxAspect) {
		t.Error("vertical double step must be disabled for h=3")
	}
}

func TestMorphDegenerate(t *testing.T) {
	row := geom.Rect{XA: 1, YA: 1, XB: 4, YB: 1} // 4×1
	col := geom.Rect{XA: 1, YA: 1, XB: 1, YB: 4} // 1×4
	for _, a := range []Action{WidenNE, WidenNW, WidenSE, WidenSW} {
		if a.Enabled(row, 100) {
			t.Errorf("%v on height-1 droplet must be disabled", a)
		}
	}
	for _, a := range []Action{HeightenNE, HeightenNW, HeightenSE, HeightenSW} {
		if a.Enabled(col, 100) {
			t.Errorf("%v on width-1 droplet must be disabled", a)
		}
	}
	// Cardinal moves stay enabled regardless.
	if !MoveN.Enabled(row, 1) || !MoveE.Enabled(col, 1) {
		t.Error("cardinal moves must always be enabled")
	}
}

func uniformForce(v float64) ForceField {
	return func(x, y int) float64 { return v }
}

func TestOutcomesSumToOneProperty(t *testing.T) {
	f := func(fv uint8, ai uint8) bool {
		force := uniformForce(float64(fv) / 255)
		a := Action(ai % NumActions)
		total := 0.0
		for _, o := range Outcomes(delta, a, force) {
			if o.P < -1e-12 || o.P > 1+1e-12 {
				return false
			}
			total += o.P
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pullFrontiers lists the frontiers whose mean forces decide a's outcomes on
// d, in pull order: both steps' frontiers of a double step, else the
// non-empty Table II frontier of each of a.Dirs().
func pullFrontiers(d geom.Rect, a Action) []geom.Rect {
	if a.Class() == Double {
		dir := a.cardinalDir()
		s := singleStep(dir)
		fr1, _ := Frontier(d, s, dir)
		fr2, _ := Frontier(s.Apply(d), s, dir)
		return []geom.Rect{fr1, fr2}
	}
	var out []geom.Rect
	for _, dir := range a.Dirs() {
		if fr, ok := Frontier(d, a, dir); ok {
			out = append(out, fr)
		}
	}
	return out
}

// TestAppendOutcomesMeanMatchesForceField: with mean = MeanForce(·, f),
// AppendOutcomesMean gives every action's outcomes bit for bit as
// AppendOutcomes does under f, over random non-uniform fields and droplets
// of every size up to 5×5, many of them on the chip edge (whose frontiers
// read off-chip zeros). mean is asked exactly for the action's frontiers,
// each once, in pull order.
func TestAppendOutcomesMeanMatchesForceField(t *testing.T) {
	const w, h = 12, 10
	src := randx.New(20)
	for trial := 0; trial < 200; trial++ {
		force := make([]float64, w*h)
		for i := range force {
			switch src.IntN(5) {
			case 0:
				force[i] = 0
			case 1:
				force[i] = 1
			default:
				force[i] = src.Float64()
			}
		}
		f := func(x, y int) float64 {
			if x < 1 || x > w || y < 1 || y > h {
				return 0
			}
			return force[(y-1)*w+x-1]
		}
		dw, dh := src.IntRange(1, 5), src.IntRange(1, 5)
		xa, ya := src.IntRange(1, w-dw+1), src.IntRange(1, h-dh+1)
		switch src.IntN(3) { // pin to the west or north edge, or neither
		case 0:
			xa = 1
		case 1:
			ya = h - dh + 1
		}
		d := rect(xa, ya, xa+dw-1, ya+dh-1)
		for a := Action(0); a < NumActions; a++ {
			var asked []geom.Rect
			mean := func(fr geom.Rect) float64 {
				asked = append(asked, fr)
				return MeanForce(fr, f)
			}
			got := AppendOutcomesMean(nil, d, a, mean)
			want := AppendOutcomes(nil, d, a, f)
			if len(got) != len(want) {
				t.Fatalf("%v on %v: %d outcomes, want %d", a, d, len(got), len(want))
			}
			for i := range want {
				g, o := got[i], want[i]
				if g.Event != o.Event || g.Droplet != o.Droplet || math.Float64bits(g.P) != math.Float64bits(o.P) {
					t.Fatalf("%v on %v outcome %d: %+v, want %+v", a, d, i, g, o)
				}
			}
			fronts := pullFrontiers(d, a)
			if len(asked) != len(fronts) {
				t.Fatalf("%v on %v: mean asked for %v, want %v", a, d, asked, fronts)
			}
			for i := range fronts {
				if asked[i] != fronts[i] {
					t.Fatalf("%v on %v: mean asked for %v, want %v", a, d, asked, fronts)
				}
			}
		}
	}
}

// TestOutcomesExample3 reproduces Example 3: with the given frontier forces,
// p(NE|δ,aNE) = 0.532. By the paper's own event-probability formula,
// p(N) = p_N·(1−p_E) = 0.76·0.30 = 0.228 and p(E) = (1−p_N)·p_E = 0.168
// (the prose of Example 3 transposes these two numbers; we follow the
// formula), and p(ε) = 0.072.
func TestOutcomesExample3(t *testing.T) {
	// Per-cell relative force: column x=8 rows 3..6 = (0.6,0.5,0.8,0.9);
	// row y=6 cols 4..8 = (0.9,0.4,0.9,0.7,0.9).
	force := func(x, y int) float64 {
		if x == 8 && y >= 3 && y <= 5 {
			return []float64{0.6, 0.5, 0.8}[y-3]
		}
		if y == 6 {
			switch x {
			case 4:
				return 0.9
			case 5:
				return 0.4
			case 6:
				return 0.9
			case 7:
				return 0.7
			case 8:
				return 0.9
			}
		}
		return 0
	}
	// Note (8,6) belongs to both frontiers; the E frontier is rows 3..6 of
	// column 8 with values (0.6,0.5,0.8,0.9) — the shared corner (8,6)
	// carries 0.9 in both, consistent with the paper's numbers.
	outs := Outcomes(delta, MoveNE, force)
	want := map[string]float64{"NE": 0.532, "N": 0.228, "E": 0.168, "ε": 0.072}
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	for _, o := range outs {
		w, ok := want[o.Event.String()]
		if !ok {
			t.Errorf("unexpected event %q", o.Event)
			continue
		}
		if math.Abs(o.P-w) > 1e-9 {
			t.Errorf("p(%s) = %v, want %v", o.Event, o.P, w)
		}
	}
}

// TestDoubleStepConditioning: the second step's success is conditioned on
// the first (Sec. V-B). With uniform force p, p(dd) = p², p(d) = p(1−p),
// p(ε) = 1−p.
func TestDoubleStepConditioning(t *testing.T) {
	const p = 0.8
	outs := Outcomes(delta, MoveEE, uniformForce(p))
	want := map[string]float64{"EE": p * p, "E": p * (1 - p), "ε": 1 - p}
	for _, o := range outs {
		if w, ok := want[o.Event.String()]; !ok || math.Abs(o.P-w) > 1e-12 {
			t.Errorf("p(%s) = %v, want %v", o.Event, o.P, w)
		}
	}
	// Destination of the full double step is two cells east.
	for _, o := range outs {
		switch o.Event {
		case EventEE:
			if o.Droplet != delta.Translate(2, 0) {
				t.Errorf("EE destination = %v", o.Droplet)
			}
		case EventE:
			if o.Droplet != delta.Translate(1, 0) {
				t.Errorf("E destination = %v", o.Droplet)
			}
		case EventNone:
			if o.Droplet != delta {
				t.Errorf("ε destination = %v", o.Droplet)
			}
		}
	}
}

func TestZeroForceMeansNoMotion(t *testing.T) {
	for _, a := range All() {
		outs := Outcomes(delta, a, uniformForce(0))
		for _, o := range outs {
			if o.Event != EventNone && o.P != 0 {
				t.Errorf("%v: event %s has p=%v under zero force", a, o.Event, o.P)
			}
			if o.Event == EventNone && math.Abs(o.P-1) > 1e-12 {
				t.Errorf("%v: p(ε) = %v under zero force", a, o.P)
			}
		}
	}
}

func TestFullForceMeansCertainMotion(t *testing.T) {
	for _, a := range All() {
		outs := Outcomes(delta, a, uniformForce(1))
		for _, o := range outs {
			full := o.Droplet == a.Apply(delta)
			if full && math.Abs(o.P-1) > 1e-12 {
				t.Errorf("%v: full success p = %v under unit force", a, o.P)
			}
			if !full && o.P != 0 {
				t.Errorf("%v: partial event %s has p = %v under unit force", a, o.Event, o.P)
			}
		}
	}
}

func TestMeanForceClamps(t *testing.T) {
	fr := geom.Rect{XA: 1, YA: 1, XB: 2, YB: 1}
	if got := MeanForce(fr, uniformForce(2)); got != 1 {
		t.Errorf("MeanForce clamp high = %v", got)
	}
	if got := MeanForce(fr, uniformForce(-1)); got != 0 {
		t.Errorf("MeanForce clamp low = %v", got)
	}
	if got := MeanForce(geom.Rect{XA: 2, YA: 2, XB: 1, YB: 1}, uniformForce(1)); got != 0 {
		t.Errorf("MeanForce empty = %v", got)
	}
}

func TestDirs(t *testing.T) {
	if ds := MoveNE.Dirs(); len(ds) != 2 || ds[0] != geom.North || ds[1] != geom.East {
		t.Errorf("aNE dirs = %v", ds)
	}
	if ds := MoveSW.Dirs(); len(ds) != 2 || ds[0] != geom.South || ds[1] != geom.West {
		t.Errorf("aSW dirs = %v", ds)
	}
	if ds := MoveNN.Dirs(); len(ds) != 1 || ds[0] != geom.North {
		t.Errorf("aNN dirs = %v", ds)
	}
	if ds := WidenNW.Dirs(); len(ds) != 1 || ds[0] != geom.West {
		t.Errorf("aWidenNW dirs = %v", ds)
	}
	if ds := HeightenSE.Dirs(); len(ds) != 1 || ds[0] != geom.South {
		t.Errorf("aHeightenSE dirs = %v", ds)
	}
}

func TestSingleStep(t *testing.T) {
	if singleStep(geom.North) != MoveN || singleStep(geom.South) != MoveS ||
		singleStep(geom.East) != MoveE || singleStep(geom.West) != MoveW {
		t.Error("singleStep mapping wrong")
	}
}

// rect is a test shorthand for geom.Rect literals.
func rect(xa, ya, xb, yb int) geom.Rect { return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb} }

func TestFromNameRoundTrip(t *testing.T) {
	for _, a := range All() {
		got, ok := FromName(a.String())
		if !ok || got != a {
			t.Errorf("FromName(%q) = %v/%v", a.String(), got, ok)
		}
	}
	if _, ok := FromName("aTeleport"); ok {
		t.Error("unknown name accepted")
	}
}

func TestActionTextMarshalling(t *testing.T) {
	b, err := MoveNE.MarshalText()
	if err != nil || string(b) != "aNE" {
		t.Errorf("MarshalText = %q/%v", b, err)
	}
	var a Action
	if err := a.UnmarshalText([]byte("aWidenSW")); err != nil || a != WidenSW {
		t.Errorf("UnmarshalText = %v/%v", a, err)
	}
	if err := a.UnmarshalText([]byte("nope")); err == nil {
		t.Error("bad name accepted")
	}
	if _, err := Action(99).MarshalText(); err == nil {
		t.Error("invalid action marshalled")
	}
}

// TestEventNames: every event prints the paper's name, and the direction-
// indexed events line up with geom.Dir.
func TestEventNames(t *testing.T) {
	want := []string{"ε", "N", "S", "E", "W", "NN", "SS", "EE", "WW", "NE", "NW", "SE", "SW", "morph"}
	for e := EventNone; e <= EventMorph; e++ {
		if e.String() != want[e] {
			t.Errorf("event %d = %q, want %q", e, e.String(), want[e])
		}
	}
	for _, dir := range cardinals {
		if got := (EventN + Event(dir)).String(); got != dir.String() {
			t.Errorf("step %v: event %q", dir, got)
		}
		if got := (EventNN + Event(dir)).String(); got != dir.String()+dir.String() {
			t.Errorf("double step %v: event %q", dir, got)
		}
	}
	if got := Event(200).String(); got != "event?200" {
		t.Errorf("invalid event prints %q", got)
	}
}

// TestCertainIsTheSureOutcome: under a field of force 1 everywhere, every
// action has exactly one outcome with nonzero probability, with P = 1, at
// Certain(d, a) — including the morphs of one-row and one-column droplets,
// whose frontier is empty.
func TestCertainIsTheSureOutcome(t *testing.T) {
	for w := 1; w <= 4; w++ {
		for h := 1; h <= 4; h++ {
			d := rect(5, 5, 5+w-1, 5+h-1)
			for a := Action(0); a < NumActions; a++ {
				live := 0
				for _, o := range Outcomes(d, a, uniformForce(1)) {
					if o.P == 0 {
						continue
					}
					live++
					if o.P != 1 || o.Droplet != Certain(d, a) {
						t.Errorf("%v on %v: outcome %v, want P 1 at %v", a, d, o, Certain(d, a))
					}
				}
				if live != 1 {
					t.Errorf("%v on %v: %d outcomes with nonzero probability", a, d, live)
				}
			}
		}
	}
}
