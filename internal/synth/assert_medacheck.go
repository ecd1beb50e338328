//go:build medacheck

package synth

import (
	"fmt"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/modelcheck"
	"meda/internal/route"
	"meda/internal/smg"
)

// assertReduced verifies every model-level invariant over the reduced
// per-job MDP (and, when non-nil, the extracted strategy) when built with
// the medacheck tag. Violations are bugs in the reduction or the solver,
// not user errors, so they panic.
func assertReduced(model *smg.Model, st mdp.Strategy, bounds geom.Rect) {
	if vs := modelcheck.CheckReduced(model, st, bounds); len(vs) > 0 {
		msg := fmt.Sprintf("synth: medacheck: reduced model failed verification (%d violations):", len(vs))
		for _, v := range vs {
			msg += "\n  " + v.String()
		}
		panic(msg)
	}
}

// assertUnit re-solves a job the unit path solved (got) by full synthesis
// on a fresh arena, verifying the reduced model too (assertReduced), and
// panics unless the two results agree bit for bit.
func assertUnit(rj route.RJ, field action.ForceField, opt Options, got Result) {
	want, err := synthesize(new(smg.Arena), nil, rj, field, opt)
	if err != nil {
		panic(fmt.Sprintf("synth: medacheck: full synthesis of %s failed after the unit path solved it: %v", rj.Name(), err))
	}
	if diff := diffResults(got, want); diff != "" {
		panic(fmt.Sprintf("synth: medacheck: unit path differs from full synthesis on %s: %s", rj.Name(), diff))
	}
}
