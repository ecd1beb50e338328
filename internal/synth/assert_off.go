//go:build !medacheck

package synth

import (
	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/route"
	"meda/internal/smg"
)

// assertReduced is a no-op in regular builds; the medacheck build tag swaps
// in full invariant verification of every reduced model and synthesized
// strategy (assert_medacheck.go).
func assertReduced(*smg.Model, mdp.Strategy, geom.Rect) {}

// assertUnit is a no-op in regular builds; under the medacheck tag it
// re-solves every unit-path job by full synthesis and compares.
func assertUnit(route.RJ, action.ForceField, Options, Result) {}
