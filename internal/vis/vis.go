// Package vis renders biochip state as ASCII maps: observed health
// matrices, droplet positions, routing-job geometry, and synthesized
// policies. The renderers are used by the example programs and the
// command-line tools; they are deliberately plain text so simulation runs
// can be inspected anywhere.
package vis

import (
	"fmt"
	"io"
	"strings"

	"meda/internal/action"
	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/policy"
	"meda/internal/synth"
)

// HealthMap writes the observed health matrix of the chip, north row first:
// '.' for the top (fully healthy) code, '#' for the zero (dead) code, and
// the decimal digit of intermediate codes. Overlay rectangles, if given, are
// drawn with letters 'A', 'B', … taking precedence.
func HealthMap(w io.Writer, c *chip.Chip, overlays ...geom.Rect) {
	top := 1<<uint(c.HealthBits()) - 1
	for y := c.H(); y >= 1; y-- {
		var b strings.Builder
		for x := 1; x <= c.W(); x++ {
			cell := geom.Cell{X: x, Y: y}
			drawn := false
			for i, r := range overlays {
				if r.Contains(cell) {
					b.WriteByte(byte('A' + i%26))
					drawn = true
					break
				}
			}
			if drawn {
				continue
			}
			switch h := c.Health(x, y); {
			case h == top:
				b.WriteByte('.')
			case h == 0:
				b.WriteByte('#')
			default:
				fmt.Fprintf(&b, "%d", h%10)
			}
		}
		fmt.Fprintln(w, b.String())
	}
}

// arrow maps each action to a single display rune.
var arrows = map[action.Action]rune{
	action.MoveN: '↑', action.MoveS: '↓', action.MoveE: '→', action.MoveW: '←',
	action.MoveNN: '⇑', action.MoveSS: '⇓', action.MoveEE: '⇒', action.MoveWW: '⇐',
	action.MoveNE: '↗', action.MoveNW: '↖', action.MoveSE: '↘', action.MoveSW: '↙',
	action.WidenNE: 'w', action.WidenNW: 'w', action.WidenSE: 'w', action.WidenSW: 'w',
	action.HeightenNE: 'h', action.HeightenNW: 'h', action.HeightenSE: 'h', action.HeightenSW: 'h',
}

// Arrow returns the display rune of an action ('?' for unknown).
func Arrow(a action.Action) rune {
	if r, ok := arrows[a]; ok {
		return r
	}
	return '?'
}

// PolicyMap writes a routing strategy over a region: at each position where
// the policy defines an action for a droplet whose lower-left corner is that
// cell, the action's arrow is drawn; 'G' marks the goal region and '#'
// blocked overlays.
func PolicyMap(w io.Writer, region, goal geom.Rect, pol synth.Policy, blocked ...geom.Rect) {
	// Index the policy by lower-left corner (unique per position for a
	// fixed droplet shape; with morphing, the first shape packed wins).
	byCorner := make([]action.Action, region.Area())
	for i := range byCorner {
		byCorner[i] = policy.None
	}
	at := func(c geom.Cell) int { return (c.Y-region.YA)*region.Width() + c.X - region.XA }
	pol.Walk(func(d geom.Rect, a action.Action) {
		if c := (geom.Cell{X: d.XA, Y: d.YA}); region.Contains(c) && byCorner[at(c)] == policy.None {
			byCorner[at(c)] = a
		}
	})
	for y := region.YB; y >= region.YA; y-- {
		var b strings.Builder
		for x := region.XA; x <= region.XB; x++ {
			cell := geom.Cell{X: x, Y: y}
			switch {
			case goal.Contains(cell):
				b.WriteRune('G')
			case contains(blocked, cell):
				b.WriteRune('#')
			case byCorner[at(cell)] != policy.None:
				b.WriteRune(Arrow(byCorner[at(cell)]))
			default:
				b.WriteRune('·')
			}
		}
		fmt.Fprintln(w, b.String())
	}
}

func contains(rects []geom.Rect, c geom.Cell) bool {
	for _, r := range rects {
		if r.Contains(c) {
			return true
		}
	}
	return false
}
