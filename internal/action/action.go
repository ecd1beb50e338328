// Package action implements the droplet actuation model of Sec. V: the 20
// microfluidic actions A = A_d ∪ A_dd ∪ A_dd' ∪ A_↓ ∪ A_↑ (Fig. 9), their
// frontier sets (Table II), their enabling guards, and the probabilistic
// outcome distributions induced by microelectrode degradation (Sec. V-B,
// Fig. 11).
//
// A droplet is the rectangle of actuated microelectrodes δ = (xa, ya, xb, yb)
// (geom.Rect). An action attempts to move and/or reshape the droplet; whether
// each constituent pull succeeds depends on the mean relative EWOD force of
// the microelectrodes in the action's frontier set for that direction.
package action

import (
	"fmt"

	"meda/internal/geom"
)

// Action is one of the 20 microfluidic actions.
type Action uint8

// The action alphabet. Morph actions follow the paper's arrow convention:
// A_↓ ("widen") increases droplet width and decreases height; A_↑
// ("heighten") increases height and decreases width. The two-letter suffix
// is the ordinal direction toward which the droplet grows.
const (
	// Cardinal single-step movements A_d.
	MoveN Action = iota
	MoveS
	MoveE
	MoveW
	// Cardinal double-step movements A_dd.
	MoveNN
	MoveSS
	MoveEE
	MoveWW
	// Ordinal movements A_dd'.
	MoveNE
	MoveNW
	MoveSE
	MoveSW
	// Width-increasing morphs A_↓ (aspect ratio grows).
	WidenNE
	WidenNW
	WidenSE
	WidenSW
	// Height-increasing morphs A_↑ (aspect ratio shrinks).
	HeightenNE
	HeightenNW
	HeightenSE
	HeightenSW

	// NumActions is the size of the action alphabet |A| = 20.
	NumActions = 20
)

// All lists every action in declaration order.
func All() []Action {
	out := make([]Action, NumActions)
	for i := range out {
		out[i] = Action(i)
	}
	return out
}

// Class partitions the alphabet as in Sec. V-B.
type Class uint8

// Action classes.
const (
	Cardinal Class = iota // A_d
	Double                // A_dd
	Ordinal               // A_dd'
	Widen                 // A_↓
	Heighten              // A_↑
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Cardinal:
		return "cardinal"
	case Double:
		return "double"
	case Ordinal:
		return "ordinal"
	case Widen:
		return "widen"
	case Heighten:
		return "heighten"
	}
	return "unknown"
}

// Class returns the action's class.
func (a Action) Class() Class {
	switch {
	case a <= MoveW:
		return Cardinal
	case a <= MoveWW:
		return Double
	case a <= MoveSW:
		return Ordinal
	case a <= WidenSW:
		return Widen
	default:
		return Heighten
	}
}

var names = [NumActions]string{
	"aN", "aS", "aE", "aW",
	"aNN", "aSS", "aEE", "aWW",
	"aNE", "aNW", "aSE", "aSW",
	"aWidenNE", "aWidenNW", "aWidenSE", "aWidenSW",
	"aHeightenNE", "aHeightenNW", "aHeightenSE", "aHeightenSW",
}

// String returns the paper-style action name (aN, aNE, aWidenNE, ...).
func (a Action) String() string {
	if int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("a?%d", uint8(a))
}

// vertical/horizontal components of the two-letter suffix for ordinal and
// morph actions; index = a - MoveNE (ordinals) or a - WidenNE etc., all use
// the NE, NW, SE, SW order.
var suffixVert = [4]geom.Dir{geom.North, geom.North, geom.South, geom.South}
var suffixHorz = [4]geom.Dir{geom.East, geom.West, geom.East, geom.West}

// cardinalDir returns the direction of a cardinal or double action.
func (a Action) cardinalDir() geom.Dir {
	switch a {
	case MoveN, MoveNN:
		return geom.North
	case MoveS, MoveSS:
		return geom.South
	case MoveE, MoveEE:
		return geom.East
	default:
		return geom.West
	}
}

// Dirs returns the cardinal directions in which the action exerts a pull:
// one direction for cardinal/double moves and morphs, two (vertical then
// horizontal) for ordinal moves.
func (a Action) Dirs() []geom.Dir {
	switch a.Class() {
	case Cardinal, Double:
		return []geom.Dir{a.cardinalDir()}
	case Ordinal:
		i := a - MoveNE
		return []geom.Dir{suffixVert[i], suffixHorz[i]}
	case Widen:
		// Widening pulls horizontally (east or west).
		return []geom.Dir{suffixHorz[a-WidenNE]}
	default: // Heighten
		// Heightening pulls vertically (north or south).
		return []geom.Dir{suffixVert[a-HeightenNE]}
	}
}

// Apply returns the droplet after fully successful execution of the action
// (the red dashed outlines of Fig. 9). It does not check guards or chip
// bounds; callers gate on Enabled and on the hazard bounds.
func (a Action) Apply(d geom.Rect) geom.Rect {
	switch a {
	case MoveN:
		return d.Translate(0, 1)
	case MoveS:
		return d.Translate(0, -1)
	case MoveE:
		return d.Translate(1, 0)
	case MoveW:
		return d.Translate(-1, 0)
	case MoveNN:
		return d.Translate(0, 2)
	case MoveSS:
		return d.Translate(0, -2)
	case MoveEE:
		return d.Translate(2, 0)
	case MoveWW:
		return d.Translate(-2, 0)
	case MoveNE:
		return d.Translate(1, 1)
	case MoveNW:
		return d.Translate(-1, 1)
	case MoveSE:
		return d.Translate(1, -1)
	case MoveSW:
		return d.Translate(-1, -1)
	case WidenNE:
		return geom.Rect{XA: d.XA, YA: d.YA + 1, XB: d.XB + 1, YB: d.YB}
	case WidenNW:
		return geom.Rect{XA: d.XA - 1, YA: d.YA + 1, XB: d.XB, YB: d.YB}
	case WidenSE:
		return geom.Rect{XA: d.XA, YA: d.YA, XB: d.XB + 1, YB: d.YB - 1}
	case WidenSW:
		return geom.Rect{XA: d.XA - 1, YA: d.YA, XB: d.XB, YB: d.YB - 1}
	case HeightenNE:
		return geom.Rect{XA: d.XA + 1, YA: d.YA, XB: d.XB, YB: d.YB + 1}
	case HeightenNW:
		return geom.Rect{XA: d.XA, YA: d.YA, XB: d.XB - 1, YB: d.YB + 1}
	case HeightenSE:
		return geom.Rect{XA: d.XA + 1, YA: d.YA - 1, XB: d.XB, YB: d.YB}
	default: // HeightenSW
		return geom.Rect{XA: d.XA, YA: d.YA - 1, XB: d.XB - 1, YB: d.YB}
	}
}

// Frontier returns the frontier set Fr(δ; a, dir) of Table II: the cells
// whose EWOD force pulls the droplet in direction dir under action a. The
// second return value is false when the frontier is empty (∅ in the table).
// For double-step actions the frontier of the *first* step is returned; the
// second step's frontier is Frontier(a.Apply-one-step(δ)) — see Outcomes.
func Frontier(d geom.Rect, a Action, dir geom.Dir) (geom.Rect, bool) {
	xa, ya, xb, yb := d.XA, d.YA, d.XB, d.YB
	switch a.Class() {
	case Cardinal, Double:
		if a.cardinalDir() != dir {
			return geom.ZeroRect, false
		}
		switch dir {
		case geom.North:
			return geom.Rect{XA: xa, YA: yb + 1, XB: xb, YB: yb + 1}, true
		case geom.South:
			return geom.Rect{XA: xa, YA: ya - 1, XB: xb, YB: ya - 1}, true
		case geom.East:
			return geom.Rect{XA: xb + 1, YA: ya, XB: xb + 1, YB: yb}, true
		default: // West
			return geom.Rect{XA: xa - 1, YA: ya, XB: xa - 1, YB: yb}, true
		}
	case Ordinal:
		i := a - MoveNE
		v, h := suffixVert[i], suffixHorz[i]
		// Horizontal shift of the vertical frontier row and vertical
		// shift of the horizontal frontier column, per Table II.
		hs := 1
		if h == geom.West {
			hs = -1
		}
		vs := 1
		if v == geom.South {
			vs = -1
		}
		switch dir {
		case v:
			row := yb + 1
			if v == geom.South {
				row = ya - 1
			}
			return geom.Rect{XA: xa + hs, YA: row, XB: xb + hs, YB: row}, true
		case h:
			col := xb + 1
			if h == geom.West {
				col = xa - 1
			}
			return geom.Rect{XA: col, YA: ya + vs, XB: col, YB: yb + vs}, true
		default:
			return geom.ZeroRect, false
		}
	case Widen:
		i := a - WidenNE
		h := suffixHorz[i]
		if dir != h {
			return geom.ZeroRect, false
		}
		col := xb + 1
		if h == geom.West {
			col = xa - 1
		}
		// The retained rows: shrink from the south for N-variants
		// (⟦ya+1, yb⟧) and from the north for S-variants (⟦ya, yb−1⟧).
		if suffixVert[i] == geom.North {
			return geom.Rect{XA: col, YA: ya + 1, XB: col, YB: yb}, yb >= ya+1
		}
		return geom.Rect{XA: col, YA: ya, XB: col, YB: yb - 1}, yb-1 >= ya
	default: // Heighten
		i := a - HeightenNE
		v := suffixVert[i]
		if dir != v {
			return geom.ZeroRect, false
		}
		row := yb + 1
		if v == geom.South {
			row = ya - 1
		}
		if suffixHorz[i] == geom.East {
			return geom.Rect{XA: xa + 1, YA: row, XB: xb, YB: row}, xb >= xa+1
		}
		return geom.Rect{XA: xa, YA: row, XB: xb - 1, YB: row}, xb-1 >= xa
	}
}

// DefaultMaxAspect is the aspect-ratio bound r used when none is specified:
// the paper notes AR may not exceed 2/1 (or drop below 1/2) without risking
// unintentional splitting.
const DefaultMaxAspect = 2.0

// Enabled evaluates the action's guard for droplet d with aspect-ratio bound
// r ≥ 1 (allowed AR range [1/r, r]):
//
//	g↑:  (yb−ya+2)/(xb−xa) ≤ r    (heighten)
//	g↓:  (xb−xa+2)/(yb−ya) ≤ r    (widen)
//	gNN, gSS: h ≥ 4;  gEE, gWW: w ≥ 4 (a droplet moves reliably at most
//	half its length per cycle)
//
// Cardinal and ordinal moves are always enabled. Morphs additionally require
// the shrinking dimension to stay ≥ 1 cell.
func (a Action) Enabled(d geom.Rect, r float64) bool {
	switch a.Class() {
	case Cardinal, Ordinal:
		return true
	case Double:
		if a.cardinalDir().Horizontal() {
			return d.Width() >= 4
		}
		return d.Height() >= 4
	case Widen:
		den := d.YB - d.YA // h − 1
		if den < 1 {
			return false
		}
		return float64(d.XB-d.XA+2)/float64(den) <= r
	default: // Heighten
		den := d.XB - d.XA // w − 1
		if den < 1 {
			return false
		}
		return float64(d.YB-d.YA+2)/float64(den) <= r
	}
}

// ForceField supplies the relative EWOD force F̄_ij ∈ [0, 1] of the
// microelectrode at (x, y); off-chip or fully failed cells must report 0.
type ForceField func(x, y int) float64

// MeanForce returns F̄(δ; a, d)/|Fr(δ; a, d)|: the mean relative force over a
// frontier rectangle, which is the success probability of that directional
// pull (all frontier MCs are assumed to contribute equally, per Sec. V-B).
func MeanForce(fr geom.Rect, f ForceField) float64 {
	n := fr.Area()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for y := fr.YA; y <= fr.YB; y++ {
		for x := fr.XA; x <= fr.XB; x++ {
			sum += f(x, y)
		}
	}
	p := sum / float64(n)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Event names an outcome in the paper's event spaces: which pulls of an
// action succeeded ("NE", "N", "E" and "ε" for an ordinal move). It is a
// one-byte code, so enumerating outcomes stores no strings; String returns
// the name.
type Event uint8

// The events. A cardinal or double step's events are indexed by direction
// (EventN + Event(dir), EventNN + Event(dir)), following geom.Dir's order.
const (
	EventNone Event = iota // "ε": no pull succeeded, the droplet stays
	EventN
	EventS
	EventE
	EventW
	EventNN
	EventSS
	EventEE
	EventWW
	EventNE
	EventNW
	EventSE
	EventSW
	EventMorph // the morph's pull succeeded
)

var eventNames = [...]string{"ε", "N", "S", "E", "W", "NN", "SS", "EE", "WW", "NE", "NW", "SE", "SW", "morph"}

// String returns the paper's name of the event.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("event?%d", uint8(e))
}

// Outcome is one probabilistic result of executing an action: the droplet
// ends at Droplet with probability P after Event.
type Outcome struct {
	Event   Event
	Droplet geom.Rect
	P       float64
}

// MaxOutcomes bounds the distribution size of any action (the ordinal
// event space {vh, v, h, ε}), for sizing reusable outcome buffers.
const MaxOutcomes = 4

// ordinalEvent maps an ordinal move's vertical and horizontal directions to
// its joint-success event.
var ordinalEvent = [4][4]Event{
	geom.North: {geom.East: EventNE, geom.West: EventNW},
	geom.South: {geom.East: EventSE, geom.West: EventSW},
}

// Outcomes returns the full outcome distribution of executing action a on
// droplet d under force field f, implementing the event probabilities of
// Sec. V-B (cardinal, double-step — second step conditioned on the first —,
// ordinal, and morph actions). The probabilities always sum to 1.
func Outcomes(d geom.Rect, a Action, f ForceField) []Outcome {
	return AppendOutcomes(nil, d, a, f)
}

// AppendOutcomes appends the outcome distribution of executing a on d under
// f to dst and returns the extended slice. It is the allocation-free form of
// Outcomes for hot loops: with a dst of sufficient capacity it performs no
// heap allocation. At most 4 outcomes are appended.
func AppendOutcomes(dst []Outcome, d geom.Rect, a Action, f ForceField) []Outcome {
	return AppendOutcomesMean(dst, d, a, func(fr geom.Rect) float64 { return MeanForce(fr, f) })
}

// AppendOutcomesMean is AppendOutcomes with each pull's success probability
// taken from mean, which is called once per non-empty frontier with that
// frontier rectangle and must return what MeanForce would over it. Model
// induction passes a lookup into per-build tables of frontier means, so a
// frontier shared by several actions and positions is summed once.
func AppendOutcomesMean(dst []Outcome, d geom.Rect, a Action, mean func(geom.Rect) float64) []Outcome {
	switch a.Class() {
	case Cardinal:
		dir := a.cardinalDir()
		fr, _ := Frontier(d, a, dir)
		p := mean(fr)
		return append(dst,
			Outcome{Event: EventN + Event(dir), Droplet: a.Apply(d), P: p},
			Outcome{Event: EventNone, Droplet: d, P: 1 - p},
		)
	case Double:
		dir := a.cardinalDir()
		single := singleStep(dir)
		fr1, _ := Frontier(d, single, dir)
		p1 := mean(fr1)
		d1 := single.Apply(d)
		fr2, _ := Frontier(d1, single, dir)
		p2 := mean(fr2)
		return append(dst,
			Outcome{Event: EventNN + Event(dir), Droplet: single.Apply(d1), P: p1 * p2},
			Outcome{Event: EventN + Event(dir), Droplet: d1, P: p1 * (1 - p2)},
			Outcome{Event: EventNone, Droplet: d, P: 1 - p1},
		)
	case Ordinal:
		i := a - MoveNE
		v, h := suffixVert[i], suffixHorz[i]
		frV, _ := Frontier(d, a, v)
		frH, _ := Frontier(d, a, h)
		pv := mean(frV)
		ph := mean(frH)
		dv := singleStep(v).Apply(d)
		dh := singleStep(h).Apply(d)
		return append(dst,
			Outcome{Event: ordinalEvent[v][h], Droplet: a.Apply(d), P: pv * ph},
			Outcome{Event: EventN + Event(v), Droplet: dv, P: pv * (1 - ph)},
			Outcome{Event: EventN + Event(h), Droplet: dh, P: (1 - pv) * ph},
			Outcome{Event: EventNone, Droplet: d, P: (1 - pv) * (1 - ph)},
		)
	default: // Widen, Heighten
		var dir geom.Dir
		if a.Class() == Widen {
			dir = suffixHorz[a-WidenNE]
		} else {
			dir = suffixVert[a-HeightenNE]
		}
		fr, ok := Frontier(d, a, dir)
		p := 0.0
		if ok {
			p = mean(fr)
		}
		return append(dst,
			Outcome{Event: EventMorph, Droplet: a.Apply(d), P: p},
			Outcome{Event: EventNone, Droplet: d, P: 1 - p},
		)
	}
}

// Certain returns where a takes d under a field whose every frontier pulls
// with force 1: Apply(d), or d itself for a morph whose frontier is empty
// (∅ in Table II), which never pulls. It is the Droplet of the one outcome
// with nonzero probability that AppendOutcomes returns under such a field.
func Certain(d geom.Rect, a Action) geom.Rect {
	switch a.Class() {
	case Widen:
		if d.YB == d.YA { // no retained row
			return d
		}
	case Heighten:
		if d.XB == d.XA { // no retained column
			return d
		}
	}
	return a.Apply(d)
}

// singleStep returns the cardinal single-step action for a direction.
func singleStep(dir geom.Dir) Action {
	switch dir {
	case geom.North:
		return MoveN
	case geom.South:
		return MoveS
	case geom.East:
		return MoveE
	default:
		return MoveW
	}
}

// SingleStep exposes the direction→action mapping for schedulers.
func SingleStep(dir geom.Dir) Action { return singleStep(dir) }

// ActuatedCells returns the set of microelectrodes that must be actuated to
// execute action a on droplet d: the target pattern a(δ). (Under the paper's
// droplet model the actuation pattern *is* the intended next droplet
// rectangle; holding a droplet in place actuates its current rectangle.)
func ActuatedCells(d geom.Rect, a Action) geom.Rect { return a.Apply(d) }

// MovesToward reports whether executing a (fully successfully) brings the
// droplet center closer to the center of goal, used by heuristic routers.
func MovesToward(d, goal geom.Rect, a Action) bool {
	cx, cy := d.Center()
	gx, gy := goal.Center()
	nd := a.Apply(d)
	nx, ny := nd.Center()
	cur := abs(gx-cx) + abs(gy-cy)
	next := abs(gx-nx) + abs(gy-ny)
	return next < cur
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// FromName returns the action with the given paper-style name (aN, aNE,
// aWidenNE, ...), for protocol and configuration parsing.
func FromName(name string) (Action, bool) {
	for i, n := range names {
		if n == name {
			return Action(i), true
		}
	}
	return 0, false
}

// MarshalText encodes the action as its name (for JSON protocols and
// configuration files).
func (a Action) MarshalText() ([]byte, error) {
	if int(a) >= NumActions {
		return nil, fmt.Errorf("action: cannot marshal invalid action %d", uint8(a))
	}
	return []byte(a.String()), nil
}

// UnmarshalText decodes an action from its name.
func (a *Action) UnmarshalText(text []byte) error {
	v, ok := FromName(string(text))
	if !ok {
		return fmt.Errorf("action: unknown action %q", text)
	}
	*a = v
	return nil
}
