package smg

import (
	"fmt"
	"math"
	"testing"

	"meda/internal/action"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/fault"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/telemetry"
)

// wornFaultyChip returns a small chip with fast-degrading microelectrodes,
// a fault overlay that sticks cells off and on and flips and stales sensor
// codes, and random wear, so its observed field varies cell to cell and
// carries every sensed fault kind.
func wornFaultyChip(t *testing.T, src *randx.Source) *chip.Chip {
	t.Helper()
	cfg := chip.Default()
	cfg.W, cfg.H = 24, 16
	cfg.Normal = degrade.ParamRange{Tau1: 0.3, Tau2: 0.6, C1: 20, C2: 60}
	c, err := chip.New(cfg, src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	c.AttachFaults(fault.New(fault.Plan{
		Seed:     uint64(src.IntN(1 << 30)),
		StuckOff: 0.05, StuckOn: 0.05, StuckAfterLo: 1, StuckAfterHi: 20,
		SensorFlip: 0.1, SensorStale: 0.1, SensorEpoch: 8,
	}, cfg.W, cfg.H))
	for i := 0; i < 400; i++ {
		x, y := src.IntRange(1, cfg.W-2), src.IntRange(1, cfg.H-2)
		c.Actuate(geom.Rect{XA: x, YA: y, XB: x + 2, YB: y + 2})
	}
	return c
}

// snapshotJob is one random routing job on c: a hazard window that touches
// a chip edge or corner in most draws, a start and goal inside it, and
// sometimes obstacles.
func snapshotJob(c *chip.Chip, src *randx.Source) (bounds, start, goal geom.Rect, blocked []geom.Rect) {
	w, h := src.IntRange(6, 12), src.IntRange(6, 12)
	xa, ya := src.IntRange(1, c.W()-w+1), src.IntRange(1, c.H()-h+1)
	switch src.IntN(4) { // pin the window to an edge, a corner or neither
	case 0:
		xa = 1
	case 1:
		xa, ya = c.W()-w+1, c.H()-h+1
	case 2:
		xa, ya = 1, c.H()-h+1
	}
	bounds = geom.Rect{XA: xa, YA: ya, XB: xa + w - 1, YB: ya + h - 1}
	size := src.IntRange(2, 4) // 4-cell droplets enable double steps
	start = geom.Rect{XA: xa, YA: ya, XB: xa + size - 1, YB: ya + size - 1}
	goal = geom.Rect{XA: bounds.XB - size + 1, YA: bounds.YB - size + 1, XB: bounds.XB, YB: bounds.YB}
	for i := src.IntN(3); i > 0; i-- {
		x, y := src.IntRange(xa+size, bounds.XB-1), src.IntRange(ya, bounds.YB-1)
		blocked = append(blocked, geom.Rect{XA: x, YA: y, XB: x, YB: y + 1})
	}
	return bounds, start, goal, blocked
}

// diffModels describes the first difference between two induced models'
// CSR slabs, comparing rewards and probabilities by their bits.
func diffModels(a, b *Model) string {
	x, y := a.M.CSR(), b.M.CSR()
	if x.NumStates != y.NumStates || len(x.Actions) != len(y.Actions) || len(x.Tos) != len(y.Tos) {
		return fmt.Sprintf("shape %d/%d/%d vs %d/%d/%d",
			x.NumStates, len(x.Actions), len(x.Tos), y.NumStates, len(y.Actions), len(y.Tos))
	}
	for i := range x.StateOff {
		if x.StateOff[i] != y.StateOff[i] {
			return fmt.Sprintf("state %d: choice offset %d vs %d", i, x.StateOff[i], y.StateOff[i])
		}
	}
	for i := range x.Actions {
		if x.Actions[i] != y.Actions[i] || x.ChoiceOff[i] != y.ChoiceOff[i] ||
			math.Float64bits(x.Rewards[i]) != math.Float64bits(y.Rewards[i]) {
			return fmt.Sprintf("choice %d differs", i)
		}
	}
	for i := range x.Tos {
		if x.Tos[i] != y.Tos[i] || math.Float64bits(x.Probs[i]) != math.Float64bits(y.Probs[i]) {
			return fmt.Sprintf("transition %d: to %d p %v vs to %d p %v", i, x.Tos[i], x.Probs[i], y.Tos[i], y.Probs[i])
		}
	}
	return ""
}

// TestInduceSnapshotBitIdentical: a model induced through the arena's force
// snapshot equals, bit for bit, the model induced while reading the live
// chip field at every frontier — over fault overlays, windows on chip edges
// and corners, double-step and morph actions, and obstacles — and the
// snapshot reads the field exactly once per cell of the bounds plus the
// two-cell ring, and nowhere else.
func TestInduceSnapshotBitIdentical(t *testing.T) {
	src := randx.New(16)
	var snap, live Arena
	faultReads := func() map[string]int64 {
		c := telemetry.Default().Snapshot().Counters
		return map[string]int64{
			"stuck_off": c["fault.cells.stuck_off"], "stuck_on": c["fault.cells.stuck_on"],
			"sensor_flip": c["fault.reads.sensor_flip"], "sensor_stale": c["fault.reads.sensor_stale"],
		}
	}
	faultsBefore := faultReads()
	classes := map[action.Class]bool{}
	obstructed := 0
	for trial := 0; trial < 60; trial++ {
		tsrc := src.SplitN("trial", trial)
		c := wornFaultyChip(t, tsrc)
		bounds, start, goal, blocked := snapshotJob(c, tsrc)
		opt := DefaultModelOptions()
		opt.AllowMorph = trial%2 == 0
		opt.Blocked = blocked
		field := c.ObservedForceField()

		reads := map[geom.Cell]int{}
		counting := func(x, y int) float64 {
			reads[geom.Cell{X: x, Y: y}]++
			return field(x, y)
		}
		got, err := snap.Induce(bounds, start, goal, counting, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ring := bounds.Expand(forceRing)
		if len(reads) != ring.Area() {
			t.Fatalf("trial %d: field read at %d cells, want the %d of %v", trial, len(reads), ring.Area(), ring)
		}
		for cell, n := range reads {
			if n != 1 || !ring.Contains(cell) {
				t.Fatalf("trial %d: cell %v read %d times (ring %v)", trial, cell, n, ring)
			}
		}

		want, err := live.induce(bounds, start, goal, action.ForceField(field), opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := diffModels(got, want); d != "" {
			t.Fatalf("trial %d (bounds %v, start %v, morph %v, %d obstacles): %s",
				trial, bounds, start, opt.AllowMorph, len(blocked), d)
		}
		for _, a := range got.M.CSR().Actions {
			if a >= 0 {
				classes[action.Action(a).Class()] = true
			}
		}
		if len(blocked) > 0 {
			obstructed++
		}
	}
	for _, cl := range []action.Class{action.Cardinal, action.Double, action.Ordinal, action.Widen, action.Heighten} {
		if !classes[cl] {
			t.Errorf("no model had a %v action", cl)
		}
	}
	if obstructed == 0 {
		t.Error("no job had obstacles")
	}
	after := faultReads()
	for kind, n := range faultsBefore {
		if after[kind] == n {
			t.Errorf("no %s fault was observed", kind)
		}
	}
}
