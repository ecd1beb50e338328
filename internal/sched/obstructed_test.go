package sched

import (
	"math"
	"testing"

	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/synth"
)

// TestObstacleSignatureKeysTheWindow: the signature is 0 without an
// obstacle in the window; permuting or repeating the obstacles, moving
// their parts outside the window and adding obstacles outside it keep it;
// any change inside the window alters it. Hash ignores it.
func TestObstacleSignatureKeysTheWindow(t *testing.T) {
	hz := rect(5, 4, 20, 12)
	obs := []geom.Rect{rect(8, 6, 10, 8), rect(18, 10, 23, 14), rect(1, 1, 6, 5), rect(9, 7, 12, 9)}
	sig := ObstacleSignature(hz, obs)
	if sig == 0 {
		t.Fatal("obstructed window has signature 0")
	}
	for _, none := range [][]geom.Rect{nil, {}, {rect(1, 1, 4, 3)}, {rect(21, 4, 30, 12), rect(5, 13, 20, 13)}} {
		if s := ObstacleSignature(hz, none); s != 0 {
			t.Errorf("obstacles %v outside the window: signature %#x, want 0", none, s)
		}
	}
	same := map[string][]geom.Rect{
		"reversed":          {obs[3], obs[2], obs[1], obs[0]},
		"repeated":          {obs[0], obs[1], obs[0], obs[2], obs[3], obs[3]},
		"grown outside":     {obs[0], rect(18, 10, 40, 30), rect(-3, -2, 6, 5), obs[3]},
		"with one outside":  {rect(22, 1, 25, 3), obs[0], obs[1], obs[2], obs[3]},
		"clipped":           {obs[0], rect(18, 10, 20, 12), rect(5, 4, 6, 5), obs[3]},
		"split off outside": {obs[0], obs[1], rect(1, 1, 4, 5), rect(5, 4, 6, 5), obs[3]},
	}
	for name, o := range same {
		if s := ObstacleSignature(hz, o); s != sig {
			t.Errorf("%s: signature %#x, want %#x", name, s, sig)
		}
	}
	differ := map[string][]geom.Rect{
		"one dropped":       obs[:3],
		"one moved a cell":  {rect(8, 6, 10, 8), obs[1], obs[2], rect(10, 7, 13, 9)},
		"one grown inside":  {rect(8, 6, 11, 8), obs[1], obs[2], obs[3]},
		"edge part moved":   {obs[0], rect(17, 10, 23, 14), obs[2], obs[3]},
		"one added inside":  {obs[0], obs[1], obs[2], obs[3], rect(15, 5, 15, 5)},
		"overlap made one":  {rect(8, 6, 12, 9), obs[1], obs[2]},
		"corner part moved": {obs[0], obs[1], rect(1, 1, 6, 6), obs[3]},
	}
	for name, o := range differ {
		if s := ObstacleSignature(hz, o); s == sig {
			t.Errorf("%s: signature unchanged", name)
		}
	}

	k := NewCacheKey(job(), synth.DefaultOptions(), 7)
	h := k.Hash()
	k.Obstacles = sig
	if k.Hash() != h {
		t.Error("Hash depends on the obstacle signature")
	}
	if allocs := testing.AllocsPerRun(100, func() { sig = ObstacleSignature(hz, obs) }); allocs != 0 {
		t.Errorf("ObstacleSignature allocates %v times per call", allocs)
	}
}

// TestObstacleSignatureRandom checks the same invariances over random
// windows and obstacle sets.
func TestObstacleSignatureRandom(t *testing.T) {
	src := randx.New(25)
	randRect := func(lo, hi int) geom.Rect {
		x, y := src.IntRange(lo, hi), src.IntRange(lo, hi)
		return rect(x, y, x+src.IntN(6), y+src.IntN(6))
	}
	for i := 0; i < 500; i++ {
		hz := randRect(1, 20)
		obs := make([]geom.Rect, src.IntRange(1, 6))
		for j := range obs {
			obs[j] = randRect(-3, 28)
		}
		sig := ObstacleSignature(hz, obs)
		inside := false
		for _, b := range obs {
			inside = inside || b.Overlaps(hz)
		}
		if (sig != 0) != inside {
			t.Fatalf("window %v, obstacles %v: signature %#x", hz, obs, sig)
		}
		if s := ObstacleSignature(hz, variant(src, hz, obs)); s != sig {
			t.Fatalf("window %v: variant of %v keyed %#x, want %#x", hz, obs, s, sig)
		}
		if moved, ok := moveInside(src, hz, obs); ok {
			if ObstacleSignature(hz, moved) == sig {
				t.Fatalf("window %v: %v and %v differ inside it but share a signature", hz, obs, moved)
			}
		}
	}
}

// variant returns obstacles that cover the same cells of hz as obs: its
// entries shuffled, one repeated, each one's part outside hz moved further
// out, and one more wholly outside hz.
func variant(src *randx.Source, hz geom.Rect, obs []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, 0, len(obs)+2)
	for _, i := range src.Perm(len(obs)) {
		b := obs[i]
		if c, ok := b.Intersect(hz); ok {
			if b.XA < hz.XA {
				b.XA = c.XA - 1 - src.IntN(4)
			}
			if b.YA < hz.YA {
				b.YA = c.YA - 1 - src.IntN(4)
			}
			if b.XB > hz.XB {
				b.XB = c.XB + 1 + src.IntN(4)
			}
			if b.YB > hz.YB {
				b.YB = c.YB + 1 + src.IntN(4)
			}
		}
		out = append(out, b)
	}
	out = append(out, out[src.IntN(len(out))])
	return append(out, rect(hz.XB+1, hz.YA, hz.XB+1+src.IntN(3), hz.YB))
}

// moveInside shifts one obstacle that reaches into hz by a cell, when
// that changes the cells of hz the obstacles cover.
func moveInside(src *randx.Source, hz geom.Rect, obs []geom.Rect) ([]geom.Rect, bool) {
	covered := func(o []geom.Rect) map[geom.Cell]bool {
		m := map[geom.Cell]bool{}
		for _, b := range o {
			if c, ok := b.Intersect(hz); ok {
				for _, cell := range c.Cells() {
					m[cell] = true
				}
			}
		}
		return m
	}
	i := src.IntN(len(obs))
	moved := append([]geom.Rect(nil), obs...)
	moved[i] = moved[i].Translate(1, 0)
	a, b := covered(obs), covered(moved)
	if len(a) == len(b) {
		same := true
		for cell := range a {
			same = same && b[cell]
		}
		if same {
			return nil, false
		}
	}
	return moved, true
}

// obstructedChip is a 24×14 chip worn in patches, so windows meet
// all-healthy, uniformly worn and mixed health.
func obstructedChip(t *testing.T, src *randx.Source) *chip.Chip {
	t.Helper()
	cfg := chip.Default()
	cfg.W, cfg.H = 24, 14
	cfg.Normal = degrade.ParamRange{Tau1: 0.5, Tau2: 0.7, C1: 60, C2: 120}
	c, err := chip.New(cfg, src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		x, y := src.IntRange(1, 20), src.IntRange(1, 10)
		patch := rect(x, y, x+src.IntRange(1, 5), y+src.IntRange(1, 4))
		for n := src.IntRange(20, 200); n > 0; n-- {
			c.Actuate(patch)
		}
	}
	return c
}

// TestObstructedServedEqualsFresh: over random obstructed windows, the
// strategy Route serves from the Cache — for the same obstacles, or a
// reordered, repeated, out-of-window-moved variant of them — equals a
// fresh synthesis of the job around those obstacles, bit for bit. The
// sample covers obstacles partly outside the window and off the chip,
// overlapping each other, over the start and over the goal, windows at
// the chip's edges, and dispense jobs; a change inside the window is
// synthesized anew.
func TestObstructedServedEqualsFresh(t *testing.T) {
	src := randx.New(2025)
	c := obstructedChip(t, src)
	w, h := c.W(), c.H()
	n := 120
	if testing.Short() {
		n = 30
	}
	a := NewAdaptive()
	a.Cache = NewCache(1 << 12)
	var partial, overlapping, overStart, overGoal, edge, dispense, hits, misses int
	for i := 0; i < n; i++ {
		dw, dh := src.IntRange(1, 3), src.IntRange(1, 3)
		at := func() geom.Rect {
			x, y := src.IntRange(1, w-dw+1), src.IntRange(1, h-dh+1)
			return rect(x, y, x+dw-1, y+dh-1)
		}
		var rj route.RJ
		if src.Bool(0.2) {
			rj = route.RJ{Dispense: true, Goal: at()}
			dispense++
		} else {
			rj.Start, rj.Goal = at(), at()
			if rj.Goal.Overlaps(rj.Start) {
				continue
			}
			rj.Hazard = route.Zone(rj.Start, rj.Goal, w, h)
		}
		norm := synth.NormalizeDispense(rj, w, h)
		hz := norm.Hazard
		if hz.XA == 1 || hz.YA == 1 || hz.XB == w || hz.YB == h {
			edge++
		}

		// Obstacles: one across the window's edge (often off the chip),
		// one inside, sometimes one over the start or the goal, and
		// sometimes one overlapping another.
		across := rect(hz.XA-src.IntN(4), hz.YA-src.IntN(4), hz.XA+src.IntN(3), hz.YA+src.IntN(3))
		if src.Bool(0.5) {
			across = rect(hz.XB-src.IntN(3), hz.YB-src.IntN(3), hz.XB+src.IntN(4), hz.YB+src.IntN(4))
		}
		x, y := src.IntRange(hz.XA, hz.XB), src.IntRange(hz.YA, hz.YB)
		inside := rect(x, y, x+src.IntN(2), y+src.IntN(2))
		obs := []geom.Rect{across, inside}
		if !hz.ContainsRect(across) && across.Overlaps(hz) {
			partial++
		}
		switch src.IntN(4) {
		case 0:
			obs = append(obs, norm.Start.Expand(src.IntN(2)))
			overStart++
		case 1:
			obs = append(obs, rect(norm.Goal.XA, norm.Goal.YA, norm.Goal.XA, norm.Goal.YA))
			overGoal++
		}
		if src.Bool(0.4) {
			obs = append(obs, inside.Translate(1, 1).Expand(1))
			overlapping++
		}

		route := func(o []geom.Rect) (synth.Policy, float64, synth.Result) {
			t.Helper()
			opt := a.Opt
			opt.Model.Blocked = o
			want, err := synth.Synthesize(norm, c.ObservedForceField(), opt)
			if err != nil {
				t.Fatalf("window %d %v: %v", i, norm, err)
			}
			p, v, err := a.Route(rj, c, o)
			if err != nil {
				t.Fatalf("window %d %v: %v", i, norm, err)
			}
			if math.Float64bits(v) != math.Float64bits(want.Value) {
				t.Fatalf("window %d %v, obstacles %v: served value %v, fresh %v", i, norm, o, v, want.Value)
			}
			if d := p.Diff(want.Policy); d != "" {
				t.Fatalf("window %d %v, obstacles %v: served policy differs from fresh: %s", i, norm, o, d)
			}
			return p, v, want
		}
		synths, cached := a.Syntheses, a.CacheHits
		_, _, first := route(obs)
		_, _, _ = route(variant(src, hz, obs))
		if !first.Exists() {
			continue
		}
		if a.Syntheses-synths > 1 || a.CacheHits != cached+1 {
			t.Fatalf("window %d %v: variant obstacles synthesized anew (%d syntheses, %d hits)",
				i, norm, a.Syntheses-synths, a.CacheHits-cached)
		}
		hits++
		if moved, ok := moveInside(src, hz, obs); ok {
			synths = a.Syntheses
			route(moved)
			if a.Syntheses != synths+1 {
				t.Fatalf("window %d %v: obstacles %v moved inside the window to %v were served from the cache", i, norm, obs, moved)
			}
			misses++
		}
	}
	t.Logf("%d served variants, %d in-window changes; %d partly outside, %d overlapping, %d over the start, %d over the goal, %d at an edge, %d dispense",
		hits, misses, partial, overlapping, overStart, overGoal, edge, dispense)
	if hits < n/4 || misses == 0 || partial == 0 || overlapping == 0 || overStart == 0 || overGoal == 0 || edge == 0 || dispense == 0 {
		t.Error("sample lacks a kind of window")
	}
}
