//go:build !medacheck

package sim

import (
	"meda/internal/chip"
	"meda/internal/geom"
)

// assertHashHeld is a no-op in regular builds; under the medacheck tag it
// re-hashes a window although the health stamp has not moved and compares
// (assert_medacheck.go).
func assertHashHeld(*chip.Chip, geom.Rect, uint64) {}
