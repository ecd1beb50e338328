package chip

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
)

// oneCell returns a 1×1 chip holding mc, latched as LoadState latches it.
func oneCell(mc degrade.MC, bits int) *Chip {
	c := newChip(1, 1, bits)
	c.mcs[0] = mc
	c.latchAll()
	return c
}

// roundTrip saves c and loads it back.
func roundTrip(t *testing.T, c *Chip) *Chip {
	t.Helper()
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// checkDirect compares the single cell's latched code with MC.Health, and,
// once the cell has been actuated, checks that its relatch count is exactly
// the next quantization drop (or FailAt, or never).
func checkDirect(t *testing.T, c *Chip, what string) {
	t.Helper()
	mc := c.mcs[0]
	code := int(c.codes[0])
	if want := mc.Health(c.bits); code != want {
		t.Fatalf("%s: latched code %d at n=%d, MC.Health %d", what, code, mc.N, want)
	}
	next := int(c.relatch[0])
	if next == 0 || next == math.MaxInt32 && (code == 0 || mc.Failed()) || next == mc.FailAt && next > mc.N {
		return
	}
	if next <= mc.N {
		t.Fatalf("%s: relatch %d not past n=%d", what, next, mc.N)
	}
	if before := mc.Params.Health(next-1, c.bits); before != code {
		t.Fatalf("%s: relatch %d, but the code already is %d at n=%d (latched %d)", what, next, before, next-1, code)
	}
	if at := mc.Params.Health(next, c.bits); at >= code {
		t.Fatalf("%s: relatch %d, but the code is still %d there (latched %d)", what, next, at, code)
	}
}

// TestHealthLatchMatchesDirect drives single cells, drawn from the default,
// a near-immortal and a steep degradation range, through windows around
// every quantization drop and hard fault of their lives, with a save/load
// round trip in each window, and checks at every actuation count that the
// latched code equals MC.Health and that the next-drop count is exact.
func TestHealthLatchMatchesDirect(t *testing.T) {
	ranges := []struct {
		name string
		r    degrade.ParamRange
	}{
		{"default", degrade.DefaultNormal},
		{"near-immortal", degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}},
		{"steep", degrade.ParamRange{Tau1: 0.05, Tau2: 0.5, C1: 1, C2: 20}},
	}
	const window = 24
	for ri, rg := range ranges {
		for _, bits := range []int{1, 2, 3} {
			for _, hard := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/b=%d/fail=%v", rg.name, bits, hard), func(t *testing.T) {
					src := randx.New(uint64(100*ri + 10*bits)).Split(fmt.Sprint(hard))
					levels := 1 << uint(bits)
					for cell := 0; cell < 40; cell++ {
						mc := degrade.MC{Params: rg.r.Sample(src)}
						life := int(math.Ceil(mc.Params.ActuationsToDegradation(1 / float64(levels))))
						if hard {
							mc.FailAt = src.IntRange(1, life+window)
						}
						starts := []int{0}
						for k := levels - 1; k >= 1; k-- {
							at := mc.Params.ActuationsToDegradation(float64(k) / float64(levels))
							starts = append(starts, max(0, int(at)-window/2))
						}
						if hard {
							starts = append(starts, max(0, mc.FailAt-window/2))
						}
						for _, n0 := range starts {
							mc.N = n0
							c := oneCell(mc, bits)
							for step := 1; step <= window; step++ {
								if step == window/2 {
									c = roundTrip(t, c)
								}
								c.Actuate(rect(1, 1, 1, 1))
								checkDirect(t, c, fmt.Sprintf("cell %d (%+v, FailAt %d) from n=%d", cell, mc.Params, mc.FailAt, n0))
							}
						}
					}
				})
			}
		}
	}
}

// TestNextDropBounds covers the counts nextDrop returns when the code can no
// longer fall, or falls only at the hard fault.
func TestNextDropBounds(t *testing.T) {
	never := int32(math.MaxInt32)
	p := degrade.Params{Tau: 0.5, C: 10}
	cases := []struct {
		name string
		mc   degrade.MC
		h    int
		want int32
	}{
		{"zero code", degrade.MC{Params: p, N: 100}, 0, never},
		{"failed", degrade.MC{Params: p, N: 5, FailAt: 5}, 0, never},
		{"tau one", degrade.MC{Params: degrade.Params{Tau: 1, C: 10}}, 3, never},
		{"fault first", degrade.MC{Params: p, N: 0, FailAt: 2}, 3, 2},
		{"drop first", degrade.MC{Params: p, N: 0, FailAt: 50}, 3, 5},
	}
	for _, tc := range cases {
		if got := nextDrop(&tc.mc, tc.h, 2); got != tc.want {
			t.Errorf("%s: nextDrop = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// refHealthHash is the reference HealthHash: hash/fnv's FNV-1a over one byte
// per observed code, row by row.
func refHealthHash(c *Chip, region geom.Rect) uint64 {
	h := fnv.New64a()
	if r, ok := region.Intersect(c.Bounds()); ok {
		for y := r.YA; y <= r.YB; y++ {
			for x := r.XA; x <= r.XB; x++ {
				h.Write([]byte{byte(c.Health(x, y))})
			}
		}
	}
	return h.Sum64()
}

// TestHealthHashPinned pins HealthHash bits — the golden traces' health=
// lines and the strategy-cache keys depend on them — both as literal values
// on a fixed worn chip and against hash/fnv over random windows, with and
// without a fault overlay that senses codes outside [0, 2^b−1].
func TestHealthHashPinned(t *testing.T) {
	cfg := Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.3, Tau2: 0.9, C1: 20, C2: 80}
	c := newTestChip(t, cfg, 5)
	src := randx.New(5)
	for step := 0; step < 60; step++ {
		c.Actuate(randomPatterns(src, c.W(), c.H())...)
	}
	c.Actuate(rect(3, 3, 20, 12))
	pins := []struct {
		region geom.Rect
		faults bool
		want   uint64
	}{
		{c.Bounds(), false, 0x6f9aa2eeb5ead20d},
		{rect(2, 2, 22, 14), false, 0x5e41cd55fc07ae02},
		{rect(-5, -5, 0, 0), false, 0xcbf29ce484222325},
		{c.Bounds(), true, 0x73bb44cee9fbed82},
		{rect(2, 2, 22, 14), true, 0x1223e51bd449c147},
	}
	for _, p := range pins {
		if p.faults {
			c.AttachFaults(scrambleModel{})
		} else {
			c.AttachFaults(nil)
		}
		if got := c.HealthHash(p.region); got != p.want {
			t.Errorf("HealthHash(%v, faults=%v) = %#x, pinned %#x", p.region, p.faults, got, p.want)
		}
	}
	for _, fm := range []FaultModel{nil, scrambleModel{}} {
		c.AttachFaults(fm)
		for i := 0; i < 200; i++ {
			xa, ya := src.IntRange(-3, c.W()+2), src.IntRange(-3, c.H()+2)
			r := rect(xa, ya, xa+src.IntN(20), ya+src.IntN(12))
			if got, want := c.HealthHash(r), refHealthHash(c, r); got != want {
				t.Fatalf("HealthHash(%v, faults=%v) = %#x, hash/fnv gives %#x", r, fm != nil, got, want)
			}
		}
	}
}
