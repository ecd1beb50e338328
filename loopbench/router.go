package main

import (
	"sync/atomic"

	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/synth"
)

// timedRouter is the paper's adaptive router with a span around Route. It
// embeds *sched.Adaptive and overrides Route alone, so every other method the
// simulator probes for (Prefetch, Drain, InvalidateRegion, SetFaultInjector)
// is promoted unchanged and the wrapper adds none (no RouteDegraded): the
// simulator takes the same code paths with and without it.
type timedRouter struct {
	*sched.Adaptive
	tr         *tracer
	obstructed atomic.Int64 // Route calls that carried obstacles (traced runs only)
}

// Route implements sched.Router.
func (r *timedRouter) Route(rj route.RJ, c *chip.Chip, obstacles []geom.Rect) (synth.Policy, float64, error) {
	if r.tr == nil {
		return r.Adaptive.Route(rj, c, obstacles)
	}
	parent, job := r.tr.currentJob()
	id := r.tr.begin(spanRoute, parent, job)
	p, v, err := r.Adaptive.Route(rj, c, obstacles)
	r.tr.end(id)
	if len(obstacles) > 0 {
		r.obstructed.Add(1)
	}
	return p, v, err
}
