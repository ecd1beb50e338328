package chip_test

import (
	"fmt"
	"testing"

	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/fault"
	"meda/internal/geom"
	"meda/internal/randx"
)

// TestHealthStampCoversHashChanges checks the contract the executor relies on
// to skip re-hashing: over random windows, a HealthHash change implies a
// HealthStamp change. The chip wears fast through random actuation patterns,
// so latched codes drop and hard faults trigger, with and without a
// fault.Injector whose stuck cells trigger and whose sensor flips and stale
// reads move from epoch to epoch, and the injector is attached and detached
// mid-run.
func TestHealthStampCoversHashChanges(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", faulted), func(t *testing.T) {
			cfg := chip.Config{
				W: 21, H: 13, HealthBits: 2,
				Normal: degrade.ParamRange{Tau1: 0.5, Tau2: 0.95, C1: 2, C2: 12},
				Faults: degrade.FaultPlan{Mode: degrade.FaultUniform, Fraction: 0.1, FailAfterLo: 2, FailAfterHi: 12},
			}
			c, err := chip.New(cfg, randx.New(3))
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.New(fault.Plan{
				Seed: 9, StuckOff: 0.1, StuckOn: 0.1, StuckAfterLo: 1, StuckAfterHi: 40,
				SensorFlip: 0.3, SensorStale: 0.2, SensorEpoch: 3,
			}, cfg.W, cfg.H)
			if faulted {
				c.AttachFaults(inj)
			}
			src := randx.New(4).Split(fmt.Sprint(faulted))
			windows := make([]geom.Rect, 40)
			for i := range windows {
				xa, ya := src.IntRange(-2, cfg.W), src.IntRange(-2, cfg.H)
				windows[i] = geom.Rect{XA: xa, YA: ya, XB: xa + src.IntN(9), YB: ya + src.IntN(9)}
			}
			hashes := make([]uint64, len(windows))
			observe := func() {
				for i, w := range windows {
					hashes[i] = c.HealthHash(w)
				}
			}
			observe()
			stamp := c.HealthStamp()
			attached := faulted
			faultFreeMoves, stampHolds := 0, 0
			for step := 1; step <= 300; step++ {
				switch {
				case step%100 == 50:
					c.AttachFaults(nil)
					attached = false
				case step%100 == 0:
					c.AttachFaults(inj)
					attached = true
				default:
					c.Actuate(patterns(src, cfg.W, cfg.H)...)
				}
				s := c.HealthStamp()
				if s == stamp {
					stampHolds++
				}
				for i, w := range windows {
					h := c.HealthHash(w)
					if h == hashes[i] {
						continue
					}
					if !attached {
						faultFreeMoves++
					}
					if s == stamp {
						t.Fatalf("step %d: HealthHash(%v) moved %#x → %#x, HealthStamp held at %d", step, w, hashes[i], h, s)
					}
				}
				stamp = s
				observe()
			}
			if faultFreeMoves == 0 || stampHolds == 0 {
				t.Errorf("vacuous run: %d hash moves without faults, %d held stamps", faultFreeMoves, stampHolds)
			}
		})
	}
}

// patterns draws one cycle's actuation patterns: a few small, partly
// off-chip rectangles, like droplets and their frontiers.
func patterns(src *randx.Source, w, h int) []geom.Rect {
	ps := make([]geom.Rect, src.IntN(3))
	for i := range ps {
		xa, ya := src.IntRange(-1, w), src.IntRange(-1, h)
		ps[i] = geom.Rect{XA: xa, YA: ya, XB: xa + src.IntN(3), YB: ya + src.IntN(3)}
	}
	return ps
}

// TestHealthStampIsMonotone checks that the stamp starts positive, only
// grows, holds across an actuation that changes no code of a fault-free chip,
// and moves on every actuation while a fault model is attached.
func TestHealthStampIsMonotone(t *testing.T) {
	c, err := chip.New(chip.Default(), randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s0 := c.HealthStamp()
	if s0 == 0 {
		t.Fatal("fresh chip has a zero stamp")
	}
	// A pristine default cell keeps code 3 for dozens of actuations.
	c.Actuate(geom.Rect{XA: 1, YA: 1, XB: 4, YB: 4})
	if s := c.HealthStamp(); s != s0 {
		t.Errorf("stamp moved %d → %d on an actuation that changed no code", s0, s)
	}
	for i := 0; i < 2000; i++ {
		c.Actuate(geom.Rect{XA: 1, YA: 1, XB: 4, YB: 4})
	}
	s1 := c.HealthStamp()
	if s1 <= s0 {
		t.Errorf("stamp %d after 2000 actuations, was %d", s1, s0)
	}
	c.AttachFaults(nil)
	s2 := c.HealthStamp()
	if s2 <= s1 {
		t.Errorf("AttachFaults left the stamp at %d (was %d)", s2, s1)
	}
	c.AttachFaults(fault.New(fault.Plan{Seed: 1}, c.W(), c.H()))
	s3 := c.HealthStamp()
	c.Actuate(geom.Rect{XA: 30, YA: 10, XB: 31, YB: 11})
	if s := c.HealthStamp(); s <= s3 {
		t.Errorf("actuation with a fault model attached left the stamp at %d (was %d)", s, s3)
	}
}
