package chip

import (
	"bytes"
	"fmt"
	"testing"

	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
)

// scrambleModel is a pure FaultModel stub whose sensed code depends on the
// cell and its actuation count, so the overlay changes as the chip wears.
// It also reports codes outside [0, 2^b−1], which the observed force field
// must saturate exactly as DegradationFromHealth does.
type scrambleModel struct{}

func (scrambleModel) PhysicalDegradation(x, y, n int, d float64) float64 { return d }

func (scrambleModel) SensedHealth(x, y, n, h, bits int) int {
	switch (7*x + 13*y + n) % 5 {
	case 0:
		return h - 1
	case 1:
		return h + 1
	case 2:
		return (x + y) % (1 << uint(bits))
	}
	return h
}

// randomPatterns draws one cycle's actuation patterns over a w×h chip:
// on-chip, partly and wholly off-chip rectangles, with overlaps and exact
// duplicates.
func randomPatterns(src *randx.Source, w, h int) []geom.Rect {
	n := src.IntN(5)
	ps := make([]geom.Rect, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && src.Bool(0.2) {
			ps = append(ps, ps[src.IntN(len(ps))])
			continue
		}
		xa, ya := src.IntRange(-3, w+2), src.IntRange(-3, h+2)
		ps = append(ps, geom.Rect{XA: xa, YA: ya, XB: xa + src.IntN(5), YB: ya + src.IntN(5)})
	}
	return ps
}

// unionArea is the number of on-chip cells covered by at least one pattern.
func unionArea(c *Chip, ps []geom.Rect) int {
	n := 0
	for y := 1; y <= c.H(); y++ {
		for x := 1; x <= c.W(); x++ {
			for _, p := range ps {
				if p.Contains(geom.Cell{X: x, Y: y}) {
					n++
					break
				}
			}
		}
	}
	return n
}

// checkLatched compares every cell's health code and observed force with
// the uncached reference computed from the MC state.
func checkLatched(t *testing.T, c *Chip, fm FaultModel, step int) {
	t.Helper()
	b := c.HealthBits()
	field := c.ObservedForceField()
	for y := 1; y <= c.H(); y++ {
		for x := 1; x <= c.W(); x++ {
			mc, _ := c.MC(x, y)
			want := degrade.QuantizeHealth(mc.Degradation(), b)
			if fm != nil {
				want = fm.SensedHealth(x, y, mc.N, want, b)
			}
			h := c.Health(x, y)
			if h != want {
				t.Fatalf("step %d: Health(%d,%d) = %d, reference %d", step, x, y, h, want)
			}
			d := degrade.DegradationFromHealth(h, b)
			if f := field(x, y); f != d*d {
				t.Fatalf("step %d: ObservedForceField(%d,%d) = %v, want %v", step, x, y, f, d*d)
			}
		}
	}
	if f := field(0, 1); f != 0 {
		t.Fatalf("step %d: off-chip observed force %v", step, f)
	}
}

// TestLatchedHealthMatchesReference drives random actuation sequences —
// overlapping, duplicated and off-chip patterns, hard faults crossing their
// threshold mid-sequence, a save/load round trip — and checks after every
// cycle that the latched health codes equal the codes recomputed from each
// MC, with and without a fault overlay, and that each Actuate call wears
// exactly the on-chip union of its patterns once.
func TestLatchedHealthMatchesReference(t *testing.T) {
	for _, bits := range []int{1, 2, 3} {
		for _, faulted := range []bool{false, true} {
			t.Run(fmt.Sprintf("b=%d/faults=%v", bits, faulted), func(t *testing.T) {
				cfg := Config{
					W: 11, H: 8, HealthBits: bits,
					// Fast wear walks every cell through all 2^b codes.
					Normal: degrade.ParamRange{Tau1: 0.3, Tau2: 0.9, C1: 5, C2: 40},
					Faults: degrade.FaultPlan{Mode: degrade.FaultUniform, Fraction: 0.25, FailAfterLo: 3, FailAfterHi: 30},
				}
				c := newTestChip(t, cfg, uint64(10*bits))
				var fm FaultModel
				if faulted {
					fm = scrambleModel{}
					c.AttachFaults(fm)
				}
				checkLatched(t, c, fm, 0)
				src := randx.New(uint64(bits)).Split(fmt.Sprint(faulted))
				failedBefore := 0
				for step := 1; step <= 400; step++ {
					if step == 200 {
						var buf bytes.Buffer
						if err := c.SaveState(&buf); err != nil {
							t.Fatal(err)
						}
						back, err := LoadState(&buf)
						if err != nil {
							t.Fatal(err)
						}
						back.AttachFaults(fm)
						c = back
						checkLatched(t, c, fm, step)
						failedBefore = countFailed(c)
					}
					ps := randomPatterns(src, c.W(), c.H())
					before := c.TotalActuations()
					c.Actuate(ps...)
					if got, want := c.TotalActuations()-before, unionArea(c, ps); got != want {
						t.Fatalf("step %d: Actuate(%v) added %d actuations, want %d", step, ps, got, want)
					}
					checkLatched(t, c, fm, step)
				}
				if failedBefore == 0 || countFailed(c) <= failedBefore {
					t.Errorf("hard faults failed: %d by the round trip, %d at the end; want some in each half", failedBefore, countFailed(c))
				}
			})
		}
	}
}

func countFailed(c *Chip) int {
	n := 0
	for y := 1; y <= c.H(); y++ {
		for x := 1; x <= c.W(); x++ {
			if mc, _ := c.MC(x, y); mc.Failed() {
				n++
			}
		}
	}
	return n
}
