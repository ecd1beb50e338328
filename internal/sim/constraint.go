// Fluidic-constraint checker for concurrent droplet routing. The DMFB
// literature splits droplet non-interference into a static constraint (the
// positions two droplets occupy after a cycle's moves must stay separated)
// and a dynamic constraint (a droplet's next position must also stay clear of
// every other droplet's current position, so no transient adjacency arises
// mid-transfer). Both reduce to the same envelope test: two rectangles
// conflict when they come within the collision margin of each other. The
// per-cycle action selection in sim.go enforces these constraints
// incrementally (each droplet's intended move is checked against the regions
// already committed this cycle), and the concurrent activation rule in
// concurrent.go uses the same envelope test at operation granularity.
package sim

import "meda/internal/geom"

// zoneConflict reports whether two droplet rectangles violate the fluidic
// separation envelope at the given margin: they overlap or come within
// margin cells of each other. The test is symmetric (expanding either side
// by the margin tests the same Chebyshev separation) and commutes with
// translations and the dihedral chip symmetries, since Expand is an
// isometry-equivariant inflation.
func zoneConflict(a, b geom.Rect, margin int) bool {
	return a.Expand(margin).Overlaps(b)
}

// HazardFree reports whether the simultaneous single-cycle transitions
// curA→nextA and curB→nextB of two droplets belonging to different
// operations satisfy the fluidic constraints at the given margin:
//
//	static:  nextA and nextB stay separated — the droplets must not be able
//	         to merge accidentally after both moves complete;
//	dynamic: nextA stays clear of curB and nextB stays clear of curA — at no
//	         instant during the transfer is a droplet adjacent to where the
//	         other one still is.
//
// A droplet that holds in place has cur == next, collapsing the three tests
// into one. The predicate is symmetric in the two droplets and invariant
// under any isometry applied to all four rectangles.
func HazardFree(curA, nextA, curB, nextB geom.Rect, margin int) bool {
	if zoneConflict(nextA, nextB, margin) {
		return false
	}
	if zoneConflict(nextA, curB, margin) {
		return false
	}
	if zoneConflict(nextB, curA, margin) {
		return false
	}
	return true
}
