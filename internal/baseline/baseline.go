// Package baseline implements the comparison router of Sec. VII-A: a
// degradation-unaware shortest-path strategy that minimizes the distance
// (in operational cycles) traveled by each droplet, using the same action
// alphabet as the adaptive synthesizer but assuming every microelectrode is
// healthy. It is the algorithm the paper's evaluation labels "baseline".
package baseline

import (
	"fmt"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/policy"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/synth"
)

// ShortestPath computes the minimum-cycle routing strategy for a routing job
// by breadth-first search over the deterministic (always-successful) move
// graph restricted to the job's hazard bounds. It returns the policy and the
// number of cycles of the shortest route. Dispense jobs must be normalized
// first (synth.NormalizeDispense).
func ShortestPath(rj route.RJ, opt smg.ModelOptions) (synth.Policy, int, error) {
	if opt.MaxAspect <= 0 {
		opt = smg.DefaultModelOptions()
	}
	if rj.Start.IsZero() {
		return synth.Policy{}, 0, fmt.Errorf("baseline: %s has an off-chip start", rj.Name())
	}
	if !rj.Hazard.ContainsRect(rj.Start) || !rj.Hazard.ContainsRect(rj.Goal) {
		return synth.Policy{}, 0, fmt.Errorf("baseline: %s endpoints outside hazard bounds", rj.Name())
	}

	// Enumerate positions exactly like the synthesis model so the two
	// routers compete on the same playing field.
	type node struct {
		d    geom.Rect
		dist int
	}
	dist := map[geom.Rect]int{}
	var entries []policy.Entry

	// Multi-source backward BFS from every goal-satisfying rectangle: the
	// droplet's shape is fixed (or morph-closed), edges cost one cycle.
	var frontier []geom.Rect
	seed := func(d geom.Rect) {
		if smg.GoalLabel(d, rj.Goal) {
			if _, ok := dist[d]; !ok {
				dist[d] = 0
				frontier = append(frontier, d)
			}
		}
	}
	// Walk the reachable rect space forward from the start to enumerate
	// candidate states (handles morph shapes without a separate pass),
	// then seed the goal set.
	states := enumerate(rj, opt)
	for _, d := range states {
		seed(d)
	}
	if len(frontier) == 0 {
		return synth.Policy{}, 0, fmt.Errorf("baseline: %s has no goal position for the droplet shape", rj.Name())
	}

	blockedAt := func(d geom.Rect) bool {
		if d == rj.Start {
			return false
		}
		for _, b := range opt.Blocked {
			if d.Overlaps(b) {
				return true
			}
		}
		return false
	}

	// Precompute reverse edges: for each state s and enabled action a,
	// record a(s) ← s. Blocked rectangles take part in no edge, so the
	// search routes around resting droplets exactly like the synthesizer.
	type rev struct {
		from geom.Rect
		act  action.Action
	}
	incoming := make(map[geom.Rect][]rev, len(states))
	for _, d := range states {
		if smg.GoalLabel(d, rj.Goal) || blockedAt(d) {
			continue
		}
		for _, a := range action.All() {
			if !allowed(a, opt) || !a.Enabled(d, opt.MaxAspect) {
				continue
			}
			nd := a.Apply(d)
			if !rj.Hazard.ContainsRect(nd) {
				continue
			}
			if !smg.GoalLabel(nd, rj.Goal) && blockedAt(nd) {
				continue
			}
			incoming[nd] = append(incoming[nd], rev{from: d, act: a})
		}
	}

	for len(frontier) > 0 {
		var next []geom.Rect
		for _, t := range frontier {
			for _, e := range incoming[t] {
				if _, seen := dist[e.from]; seen {
					continue
				}
				dist[e.from] = dist[t] + 1
				entries = append(entries, policy.Entry{D: e.from, A: e.act})
				next = append(next, e.from)
			}
		}
		frontier = next
	}

	d0, ok := dist[rj.Start]
	if !ok {
		return synth.Policy{}, 0, fmt.Errorf("baseline: %s goal unreachable within hazard bounds", rj.Name())
	}
	return policy.Of(entries), d0, nil
}

// enumerate lists every droplet rectangle of the job's shape family that
// fits within the hazard bounds.
func enumerate(rj route.RJ, opt smg.ModelOptions) []geom.Rect {
	first := [2]int{rj.Start.Width(), rj.Start.Height()}
	seen := map[[2]int]bool{first: true}
	shapes := [][2]int{first} // BFS order keeps the search deterministic
	if opt.AllowMorph {
		for i := 0; i < len(shapes); i++ {
			s := shapes[i]
			probe := geom.Rect{XA: 1, YA: 1, XB: s[0], YB: s[1]}
			for _, a := range action.All() {
				if cls := a.Class(); cls != action.Widen && cls != action.Heighten {
					continue
				}
				if !a.Enabled(probe, opt.MaxAspect) {
					continue
				}
				nd := a.Apply(probe)
				ns := [2]int{nd.Width(), nd.Height()}
				if !seen[ns] {
					seen[ns] = true
					shapes = append(shapes, ns)
				}
			}
		}
	}
	var out []geom.Rect
	for _, s := range shapes {
		w, h := s[0], s[1]
		for ya := rj.Hazard.YA; ya+h-1 <= rj.Hazard.YB; ya++ {
			for xa := rj.Hazard.XA; xa+w-1 <= rj.Hazard.XB; xa++ {
				out = append(out, geom.Rect{XA: xa, YA: ya, XB: xa + w - 1, YB: ya + h - 1})
			}
		}
	}
	return out
}

func allowed(a action.Action, opt smg.ModelOptions) bool {
	switch a.Class() {
	case action.Cardinal:
		return true
	case action.Double:
		return opt.AllowDouble
	case action.Ordinal:
		return opt.AllowOrdinal
	default:
		return opt.AllowMorph
	}
}
