//go:build !medacheck

package sched

import (
	"meda/internal/action"
	"meda/internal/route"
	"meda/internal/synth"
)

// assertServed is a no-op in regular builds; under the medacheck tag it
// re-synthesizes every window served from a strategy store and compares
// (assert_medacheck.go).
func assertServed(route.RJ, action.ForceField, synth.Options, bool, synth.Policy, float64) {}
