// Package chipaccess is the golden input for the chipaccess analyzer.
package chipaccess

import (
	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/synth"
)

func region() geom.Rect { return geom.Rect{XA: 1, YA: 1, XB: 8, YB: 8} }

func goStatementReads(c *chip.Chip) {
	go func() {
		_ = c.Health(1, 1) // want `chip\.Chip\.Health accessed from a background goroutine`
	}()
	go func() {
		f := c.ObservedForceField() // want `chip\.Chip\.ObservedForceField accessed from a background goroutine`
		_ = f
	}()
	go c.Actuate(region()) // want `chip\.Chip\.Actuate accessed from a background goroutine`
}

func snapshotInGoroutineStillFlagged(c *chip.Chip) {
	// Even the snapshot method races when called off the owning goroutine;
	// the snapshot must be taken by the submitter.
	go func() {
		_ = c.SnapshotForceField(region()) // want `chip\.Chip\.SnapshotForceField accessed from a background goroutine`
	}()
}

func goroutineReadsWithHandoff(c *chip.Chip) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c.MinHealth(region()) // want `chip\.Chip\.MinHealth accessed from a background goroutine`
		_ = c.W()                 // want `chip\.Chip\.W accessed from a background goroutine`
	}()
	<-done
}

func snapshotOnLauncher(c *chip.Chip) {
	// The sanctioned pattern: snapshot on the launching goroutine, hand
	// the immutable snapshot to the goroutine.
	field := c.SnapshotForceField(region())
	go func() {
		_ = field(2, 2)
	}()
}

func goArgumentsEvaluateOnLauncher(c *chip.Chip) {
	// A go statement's arguments are evaluated before the goroutine starts,
	// so the chip call below runs on the launching goroutine.
	go synth.Synthesize(route.RJ{}, c.SnapshotForceField(region()), synth.DefaultOptions())
}

func synchronousUseIsFine(c *chip.Chip) int {
	return c.Health(2, 2)
}
