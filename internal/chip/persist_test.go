package chip

import (
	"bytes"
	"strings"
	"testing"

	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
)

func TestChipStateRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.Faults = degrade.FaultPlan{Mode: degrade.FaultClustered, Fraction: 0.05, FailAfterLo: 5, FailAfterHi: 50}
	c, err := New(cfg, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wear it a little so counters are non-trivial.
	for i := 0; i < 30; i++ {
		c.Actuate(geom.Rect{XA: 5, YA: 5, XB: 12, YB: 9})
	}
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadState(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.W() != c.W() || back.H() != c.H() || back.HealthBits() != c.HealthBits() {
		t.Fatal("geometry lost")
	}
	for y := 1; y <= c.H(); y++ {
		for x := 1; x <= c.W(); x++ {
			a, _ := c.MC(x, y)
			b, _ := back.MC(x, y)
			if a.Params != b.Params || a.N != b.N || a.FailAt != b.FailAt {
				t.Fatalf("cell (%d,%d) state lost: %+v vs %+v", x, y, a, b)
			}
		}
	}
	// The restored chip behaves identically.
	if back.TotalActuations() != c.TotalActuations() {
		t.Error("wear total mismatch")
	}
	if back.HealthHash(back.Bounds()) != c.HealthHash(c.Bounds()) {
		t.Error("health hash mismatch")
	}
}

func TestLoadStateRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"version":9}`,
		`{"version":1,"w":0,"h":5,"bits":2,"cells":[]}`,
		`{"version":1,"w":2,"h":2,"bits":2,"cells":[]}`,
		`{"version":1,"w":1,"h":1,"bits":2,"cells":[{"tau":1.5,"c":10}]}`,
		`{"version":1,"w":1,"h":1,"bits":2,"cells":[{"tau":0.5,"c":10,"n":-3}]}`,
	}
	for _, s := range cases {
		if _, err := LoadState(strings.NewReader(s)); err == nil {
			t.Errorf("accepted: %s", s)
		}
	}
}
