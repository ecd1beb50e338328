//go:build medacheck

package sched

import (
	"fmt"
	"math"

	"meda/internal/action"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/route"
	"meda/internal/smg"
	"meda/internal/spec"
	"meda/internal/synth"
)

// assertServed re-synthesizes a window that Route served from a strategy
// store and panics unless the served strategy (p, v) is what synthesis
// gives when the medacheck build tag is set.
//
// A Cache hit (canon false) must equal, bit for bit, a fresh synthesis of
// rj under field and opt, whose Model.Blocked holds the job's obstacles:
// the key holds the window's geometry, health hash and obstacle signature,
// so nothing else may change the strategy. That exactness is why the cache
// needs no eager invalidation. A Library hit (canon true) was stored from
// some dihedral image of rj's canonical job, whose tie-breaks can differ
// from rj's own. It must equal the fresh synthesis of one of the eight
// images, on the window's all-healthy field, carried through the Library's
// two transforms. Since that check trusts the transforms it carries
// through, a Library hit must also pass one that uses none
// (servedOptimal).
func assertServed(rj route.RJ, field action.ForceField, opt synth.Options, canon bool, p synth.Policy, v float64) {
	if !canon {
		if diff := servedDiff(rj, field, opt, p, v, nil); diff != "" {
			panic(fmt.Sprintf("sched: medacheck: cache hit for %s differs from fresh synthesis: %s", rj.Name(), diff))
		}
		return
	}
	if diff := servedOptimal(rj, field, opt, p, v); diff != "" {
		panic(fmt.Sprintf("sched: medacheck: library hit for %s is not optimal on its own window: %s", rj.Name(), diff))
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
	panic(fmt.Sprintf("sched: medacheck: library hit for %s matches no dihedral image's fresh synthesis; rj's own: %s", rj.Name(), first))
}

// servedOptimal checks a Library hit without any D4 transform: a fresh
// synthesis of rj's own window under field must cover as many positions
// as p and reach v within mdp.Eps, and every action p serves must be
// enabled at its position and optimal there — its one-step value, under
// the values of rj's induced model solved afresh, within mdp.Eps of the
// best choice's. It describes the first violation, or returns "".
func servedOptimal(rj route.RJ, field action.ForceField, opt synth.Options, p synth.Policy, v float64) string {
	want, err := synth.Synthesize(rj, field, opt)
	if err != nil {
		return fmt.Sprintf("fresh synthesis failed: %v", err)
	}
	if !mdp.ApproxEqual(v, want.Value, mdp.Eps) {
		return fmt.Sprintf("value %v, want %v", v, want.Value)
	}
	if p.Len() != want.Policy.Len() {
		return fmt.Sprintf("%d positions, want %d", p.Len(), want.Policy.Len())
	}
	if p.Len() == 0 {
		return ""
	}
	m, err := smg.Induce(rj.Hazard, rj.Start, rj.Goal, field, opt.Model)
	if err != nil {
		return fmt.Sprintf("inducing the window's model failed: %v", err)
	}
	maximize := opt.Query.Kind == spec.PMax
	target, avoid := m.Goal, m.Hazard
	if opt.Query.Reach == "hazard" {
		target, avoid = m.Hazard, m.Goal
	}
	if opt.Query.Avoid == "" {
		avoid = nil
	}
	var solved mdp.Result
	if maximize {
		solved, err = m.M.MaxReachProb(target, avoid, mdp.SolveOptions{})
	} else {
		solved, err = m.M.MinExpectedReward(target, avoid, mdp.SolveOptions{})
	}
	if err != nil {
		return fmt.Sprintf("re-solving the fresh model failed: %v", err)
	}
	vals := solved.Values
	q := func(c mdp.Choice) float64 {
		x := 0.0
		if !maximize {
			x = c.Reward
		}
		for _, tr := range c.Transitions {
			if tr.P > 0 {
				x += tr.P * vals[tr.To]
			}
		}
		return x
	}
	diff := ""
	p.Walk(func(d geom.Rect, a action.Action) {
		if diff != "" {
			return
		}
		s, ok := m.StateOf(d)
		if !ok {
			diff = fmt.Sprintf("position %v is outside the window", d)
			return
		}
		if math.IsInf(vals[s], 0) {
			return // no choice reaches the goal: every enabled one is as good
		}
		served, best, found := 0.0, 0.0, false
		for i, c := range m.M.Choices(s) {
			x := q(c)
			if i == 0 || (maximize && x > best) || (!maximize && x < best) {
				best = x
			}
			if c.Action == int(a) {
				served, found = x, true
			}
		}
		switch {
		case !found:
			diff = fmt.Sprintf("action %v is not enabled at %v", a, d)
		case !mdp.ApproxEqual(served, best, mdp.Eps):
			diff = fmt.Sprintf("action %v at %v has value %v, the best choice %v", a, d, served, best)
		}
	})
	return diff
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
