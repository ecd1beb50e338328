// Package snapshotflow is the golden input for the snapshotflow analyzer.
package snapshotflow

import (
	"meda/internal/action"
	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/synth"
)

func region() geom.Rect { return geom.Rect{XA: 1, YA: 1, XB: 8, YB: 8} }

func liveFieldIntoGoroutine(c *chip.Chip) {
	field := c.ObservedForceField()
	go func() {
		_ = field(1, 1) // want `field holds a live chip force field`
	}()
}

func snapshotIsSafe(c *chip.Chip) {
	field := c.SnapshotForceField(region())
	go func() {
		_ = field(1, 1)
	}()
}

func inlineLiveFieldIntoGo(c *chip.Chip) {
	go synth.Synthesize(route.RJ{}, c.ObservedForceField(), synth.DefaultOptions()) // want `live chip force field passed across a goroutine boundary`
}

func inlineSnapshotIntoGo(c *chip.Chip) {
	go synth.Synthesize(route.RJ{}, c.SnapshotForceField(region()), synth.DefaultOptions())
}

func taintedVarIntoGo(c *chip.Chip) {
	field := c.TrueForceField()
	go synth.Synthesize(route.RJ{}, field, synth.DefaultOptions()) // want `field holds a live chip force field`
}

func reassignedFromSnapshotIsSafe(c *chip.Chip) {
	field := c.ObservedForceField()
	_ = field(1, 1) // fine on the launching goroutine
	field = c.SnapshotForceField(region())
	go func() {
		_ = field(1, 1)
	}()
}

func reassignedToLiveIsFlagged(c *chip.Chip) {
	field := c.SnapshotForceField(region())
	field = c.ObservedForceField()
	go func() {
		_ = field(1, 1) // want `field holds a live chip force field`
	}()
}

func taintFlowsThroughCopies(c *chip.Chip) {
	a := c.TrueForceField()
	b := a
	go func() {
		_ = b(2, 2) // want `b holds a live chip force field`
	}()
}

// Even SnapshotForceField as an unbound method value closes over the live
// chip: the copy only happens when it is finally called.
func methodValueIsLive(c *chip.Chip) {
	snap := c.SnapshotForceField
	go func() {
		_ = snap(region()) // want `snap holds a live chip force field`
	}()
}

// Calling the method value on the launching goroutine takes the copy there,
// so its result is a snapshot like any other.
func methodValueCalledOnLauncherIsSafe(c *chip.Chip) {
	snap := c.SnapshotForceField
	field := snap(region())
	go func() {
		_ = field(1, 1)
	}()
}

func unrelatedFuncValuesUntainted() {
	var field action.ForceField = func(x, y int) float64 { return 1 }
	go func() {
		_ = field(1, 1)
	}()
}

func scalarCopiesUntainted(c *chip.Chip) {
	w, h := c.W(), c.H()
	go func() {
		_ = w * h
	}()
}
