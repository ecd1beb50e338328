//go:build medacheck

package sched

import (
	"fmt"
	"math"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/synth"
)

// assertServed re-synthesizes a window that Route served from a strategy
// store and panics unless the served strategy (p, v) is, bit for bit, what
// synthesis gives when the medacheck build tag is set.
//
// A raw-key Cache hit must equal a fresh synthesis of rj under field: the
// key holds the window's geometry and health hash, so nothing else may
// change the strategy. That exactness is why the cache needs no eager
// invalidation. A canonical hit (the Library, or a uniform-health Cache
// entry) was stored from some dihedral image of rj's canonical job, whose
// tie-breaks can differ from rj's own. It must equal the fresh synthesis
// of one of the eight images, on the window's uniform field, carried
// through the store's two transforms.
func assertServed(rj route.RJ, field action.ForceField, opt synth.Options, canon bool, p synth.Policy, v float64) {
	if !canon {
		if diff := servedDiff(rj, field, opt, p, v, nil); diff != "" {
			panic(fmt.Sprintf("sched: medacheck: cache hit for %s differs from fresh synthesis: %s", rj.Name(), diff))
		}
		return
	}
	crj, tf := synth.Canonicalize(rj)
	f := field(rj.Hazard.XA, rj.Hazard.YA)
	uniform := func(x, y int) float64 { return f }
	w, h := crj.Hazard.XB, crj.Hazard.YB
	first := ""
	for i := uint8(0); i < 8; i++ {
		op := tf.Op ^ i // rj's own orientation first
		img := synth.Transform{Op: op, X0: 1, Y0: 1, W: w, H: h}
		if op&1 != 0 { // the op transposes: the image's window is h×w
			img.W, img.H = h, w
		}
		job := route.RJ{Start: img.Invert(crj.Start), Goal: img.Invert(crj.Goal),
			Hazard: geom.Rect{XA: 1, YA: 1, XB: img.W, YB: img.H}}
		_, stored := synth.Canonicalize(job)
		carry := func(q synth.Policy) synth.Policy { return tf.InvertPolicy(stored.ApplyPolicy(q)) }
		diff := servedDiff(job, uniform, opt, p, v, carry)
		if diff == "" {
			return
		}
		if first == "" {
			first = diff
		}
	}
	panic(fmt.Sprintf("sched: medacheck: canonical hit for %s matches no dihedral image's fresh synthesis; rj's own: %s", rj.Name(), first))
}

// servedDiff synthesizes job under field and describes how (p, v) differs
// from the result, its policy first mapped by carry when carry is non-nil.
func servedDiff(job route.RJ, field action.ForceField, opt synth.Options, p synth.Policy, v float64,
	carry func(synth.Policy) synth.Policy) string {
	want, err := synth.Synthesize(job, field, opt)
	if err != nil {
		return fmt.Sprintf("fresh synthesis failed: %v", err)
	}
	if math.Float64bits(v) != math.Float64bits(want.Value) {
		return fmt.Sprintf("value %v, want %v", v, want.Value)
	}
	if carry != nil {
		want.Policy = carry(want.Policy)
	}
	return p.Diff(want.Policy)
}
