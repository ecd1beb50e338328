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
	"meda/internal/mdp"
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
// sometimes obstacles, among them one overlapping the goal and one whose
// margin covers the start.
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
	if src.IntN(3) == 0 { // covers the goal's south-west corner cell
		blocked = append(blocked, geom.Rect{XA: goal.XA - 1, YA: goal.YA - 1, XB: goal.XA, YB: goal.YA})
	}
	if src.IntN(3) == 0 { // a margin-grown obstacle over the start's corner cell
		blocked = append(blocked, geom.Rect{XA: start.XA - 1, YA: start.YA - 1, XB: start.XA, YB: start.YA})
	}
	return bounds, start, goal, blocked
}

// overlapsAny reports whether r overlaps any of rs.
func overlapsAny(r geom.Rect, rs []geom.Rect) bool {
	for _, b := range rs {
		if r.Overlaps(b) {
			return true
		}
	}
	return false
}

// refChoice is one choice of a reference model: its action, reward and
// transitions.
type refChoice struct {
	action int32
	reward float64
	tos    []int32
	probs  []float64
}

// referenceChoices lists, state by state, the choices a model of the job must
// have, derived straight from action.Outcomes over field and independent of
// the arena's snapshot and tables. A goal position self-loops; every other
// position has one choice per allowed, enabled, in-bounds action with a
// live outcome. Each live outcome resolves, in order, to the goal sink if it
// satisfies the goal, to the hazard sink if it leaves the bounds or overlaps
// an obstacle (the start is exempt), and otherwise to its position in m.
func referenceChoices(m *Model, bounds, start, goal geom.Rect, field action.ForceField, opt ModelOptions) [][]refChoice {
	ids := map[geom.Rect]int32{}
	for s := range m.NumPositions() {
		r, _ := m.RectOf(mdp.StateID(s))
		ids[r] = int32(s)
	}
	resolve := func(d geom.Rect) int32 {
		if GoalLabel(d, goal) {
			return int32(m.GoalSink)
		}
		if HazardLabel(d, bounds) || (d != start && overlapsAny(d, opt.Blocked)) {
			return int32(m.HazardSink)
		}
		id, ok := ids[d]
		if !ok {
			return int32(m.HazardSink)
		}
		return id
	}
	commit := func(to int32) []refChoice {
		return []refChoice{{action: -1, tos: []int32{to}, probs: []float64{1}}}
	}
	want := make([][]refChoice, m.M.NumStates())
	for s := range m.NumPositions() {
		d, _ := m.RectOf(mdp.StateID(s))
		if GoalLabel(d, goal) {
			want[s] = commit(int32(s))
			continue
		}
		for a := action.Action(0); a < action.NumActions; a++ {
			if !opt.allowed(a) || !a.Enabled(d, opt.MaxAspect) || !bounds.ContainsRect(a.Apply(d)) {
				continue
			}
			c := refChoice{action: int32(a), reward: opt.ActionCost}
			for _, o := range action.Outcomes(d, a, field) {
				if !mdp.IsZeroProb(o.P) {
					c.tos = append(c.tos, resolve(o.Droplet))
					c.probs = append(c.probs, o.P)
				}
			}
			if len(c.tos) > 0 {
				want[s] = append(want[s], c)
			}
		}
	}
	want[m.Init] = commit(resolve(start))
	want[m.GoalSink] = commit(int32(m.GoalSink))
	want[m.HazardSink] = commit(int32(m.HazardSink))
	return want
}

// diffReference describes the first difference between a model's CSR slabs
// and the reference choices, comparing rewards and probabilities by bits.
func diffReference(m *Model, want [][]refChoice) string {
	x := m.M.CSR()
	if x.NumStates != len(want) {
		return fmt.Sprintf("%d states, want %d", x.NumStates, len(want))
	}
	for s, cs := range want {
		first := x.StateOff[s]
		if n := int(x.StateOff[s+1] - first); n != len(cs) {
			return fmt.Sprintf("state %d: %d choices, want %d", s, n, len(cs))
		}
		for k, w := range cs {
			c := first + int32(k)
			if x.Actions[c] != w.action || math.Float64bits(x.Rewards[c]) != math.Float64bits(w.reward) {
				return fmt.Sprintf("state %d choice %d: action %d reward %v, want %d %v",
					s, k, x.Actions[c], x.Rewards[c], w.action, w.reward)
			}
			t0 := x.ChoiceOff[c]
			if n := int(x.ChoiceOff[c+1] - t0); n != len(w.tos) {
				return fmt.Sprintf("state %d choice %d: %d transitions, want %d", s, k, n, len(w.tos))
			}
			for i, to := range w.tos {
				t := t0 + int32(i)
				if x.Tos[t] != to || math.Float64bits(x.Probs[t]) != math.Float64bits(w.probs[i]) {
					return fmt.Sprintf("state %d choice %d transition %d: to %d p %v, want to %d p %v",
						s, k, i, x.Tos[t], x.Probs[t], to, w.probs[i])
				}
			}
		}
	}
	return ""
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

// TestInduceSnapshotBitIdentical: every choice of a model induced through the
// arena's force snapshot and frontier-mean tables equals, bit for bit, the
// reference built from action.Outcomes over the live chip field — over fault
// overlays, observed and hidden fields, windows on chip edges and corners,
// double-step and morph
// actions, obstacles, obstacles overlapping the goal and obstacles covering
// the start — and the snapshot reads the field exactly once per cell of the
// bounds plus the two-cell ring, and nowhere else.
func TestInduceSnapshotBitIdentical(t *testing.T) {
	src := randx.New(16)
	var snap Arena
	faultReads := func() map[string]int64 {
		c := telemetry.Default().Snapshot().Counters
		return map[string]int64{
			"stuck_off": c["fault.cells.stuck_off"], "stuck_on": c["fault.cells.stuck_on"],
			"sensor_flip": c["fault.reads.sensor_flip"], "sensor_stale": c["fault.reads.sensor_stale"],
		}
	}
	faultsBefore := faultReads()
	classes := map[action.Class]bool{}
	obstructed, goalBlocked, startBlocked := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		tsrc := src.SplitN("trial", trial)
		c := wornFaultyChip(t, tsrc)
		bounds, start, goal, blocked := snapshotJob(c, tsrc)
		opt := DefaultModelOptions()
		opt.AllowMorph = trial%2 == 0
		opt.Blocked = blocked
		// The observed field takes few distinct values, so most frontier
		// sums are exact in any order; every third job reads the hidden
		// degradation field, whose values are arbitrary, so a reordered
		// summation shows in the bits.
		field := c.ObservedForceField()
		if trial%3 == 2 {
			field = c.TrueForceField()
		}

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

		want := referenceChoices(got, bounds, start, goal, field, opt)
		if d := diffReference(got, want); d != "" {
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
		if overlapsAny(goal, blocked) {
			goalBlocked++
		}
		if overlapsAny(start, blocked) {
			startBlocked++
		}
	}
	for _, cl := range []action.Class{action.Cardinal, action.Double, action.Ordinal, action.Widen, action.Heighten} {
		if !classes[cl] {
			t.Errorf("no model had a %v action", cl)
		}
	}
	if obstructed == 0 || goalBlocked == 0 || startBlocked == 0 {
		t.Errorf("jobs with obstacles %d, over the goal %d, over the start %d; want each > 0",
			obstructed, goalBlocked, startBlocked)
	}
	after := faultReads()
	for kind, n := range faultsBefore {
		if after[kind] == n {
			t.Errorf("no %s fault was observed", kind)
		}
	}
}
