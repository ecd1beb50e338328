package sim

import (
	"testing"

	"meda/internal/chip"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
)

// TestSidestepPicksClearMove exercises the knot-dissolving fallback
// directly: a droplet blocked straight ahead must find an unblocked move,
// and report failure when boxed in on all sides.
func TestSidestepPicksClearMove(t *testing.T) {
	src := randx.New(1)
	c, err := chip.New(robustChipConfig(), src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(DefaultConfig(), c, sched.NewBaseline(), src.Split("sim"))
	job := &jobRT{rj: route.RJ{
		Start:  geom.Rect{XA: 5, YA: 5, XB: 7, YB: 7},
		Goal:   geom.Rect{XA: 20, YA: 5, XB: 22, YB: 7},
		Hazard: geom.Rect{XA: 1, YA: 1, XB: 25, YB: 12},
	}, mo: 0}
	me := &dropletRT{rect: geom.Rect{XA: 5, YA: 5, XB: 7, YB: 7}, mo: 0, job: job}
	job.droplet = me
	// A blocker parked immediately east.
	blocker := &dropletRT{rect: geom.Rect{XA: 9, YA: 5, XB: 11, YB: 7}, mo: 1}
	droplets := []*dropletRT{me, blocker}
	intents := []geom.Rect{me.rect, blocker.rect}

	a, target, ok := r.sidestep(me, droplets, intents, 0)
	if !ok {
		t.Fatal("sidestep found no move")
	}
	if r.blockedBy(me, target, droplets, intents, 0) != nil {
		t.Fatalf("sidestep chose a blocked move %v→%v", a, target)
	}

	// Boxed in: blockers on all four sides within the margin.
	boxed := []*dropletRT{me,
		{rect: geom.Rect{XA: 9, YA: 5, XB: 11, YB: 7}, mo: 1},
		{rect: geom.Rect{XA: 1, YA: 5, XB: 3, YB: 7}, mo: 1},
		{rect: geom.Rect{XA: 5, YA: 9, XB: 7, YB: 11}, mo: 1},
		{rect: geom.Rect{XA: 5, YA: 1, XB: 7, YB: 3}, mo: 1},
	}
	boxedIntents := make([]geom.Rect, len(boxed))
	for i, d := range boxed {
		boxedIntents[i] = d.rect
	}
	if _, _, ok := r.sidestep(me, boxed, boxedIntents, 0); ok {
		t.Error("sidestep escaped an impossible box")
	}
}
