//go:build medacheck

package sim

import (
	"fmt"

	"meda/internal/chip"
	"meda/internal/geom"
)

// assertHashHeld re-hashes a job's window when built with the medacheck tag,
// although the chip's health stamp has not moved, and panics if the hash
// has: the chip missed a health event, and the job would keep a strategy
// built from a health matrix that no longer holds.
func assertHashHeld(c *chip.Chip, region geom.Rect, hash uint64) {
	if h := c.HealthHash(region); h != hash {
		panic(fmt.Sprintf("sim: medacheck: HealthHash(%v) moved %#x → %#x under an unchanged HealthStamp %d",
			region, hash, h, c.HealthStamp()))
	}
}
