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
