package vis

import (
	"bytes"
	"strings"
	"testing"

	"meda/internal/action"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/policy"
	"meda/internal/randx"
)

func rect(xa, ya, xb, yb int) geom.Rect { return geom.Rect{XA: xa, YA: ya, XB: xb, YB: yb} }

func smallChip(t *testing.T) *chip.Chip {
	t.Helper()
	cfg := chip.Config{W: 10, H: 5, HealthBits: 2, Normal: degrade.DefaultNormal}
	c, err := chip.New(cfg, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHealthMapFresh(t *testing.T) {
	c := smallChip(t)
	var buf bytes.Buffer
	HealthMap(&buf, c)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rows = %d, want 5", len(lines))
	}
	for _, l := range lines {
		if l != strings.Repeat(".", 10) {
			t.Fatalf("fresh chip row = %q", l)
		}
	}
}

func TestHealthMapOverlayAndDead(t *testing.T) {
	cfg := chip.Config{W: 10, H: 5, HealthBits: 2,
		Normal: degrade.ParamRange{Tau1: 0.1, Tau2: 0.11, C1: 5, C2: 6}}
	c, err := chip.New(cfg, randx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		c.Actuate(rect(1, 1, 2, 1))
	}
	var buf bytes.Buffer
	HealthMap(&buf, c, rect(9, 5, 10, 5))
	out := buf.String()
	if !strings.Contains(out, "#") {
		t.Error("dead cells not rendered")
	}
	if !strings.Contains(out, "A") {
		t.Error("overlay not rendered")
	}
	// Overlay is on the top row (printed first).
	first := strings.SplitN(out, "\n", 2)[0]
	if !strings.HasSuffix(first, "AA") {
		t.Errorf("top row = %q", first)
	}
}

func TestArrowCoverage(t *testing.T) {
	for _, a := range action.All() {
		if Arrow(a) == '?' {
			t.Errorf("action %v has no arrow", a)
		}
	}
	if Arrow(action.Action(200)) != '?' {
		t.Error("unknown action should render '?'")
	}
}

func TestPolicyMap(t *testing.T) {
	pol := policy.Of([]policy.Entry{
		{D: rect(1, 1, 3, 3), A: action.MoveNE},
		{D: rect(2, 2, 4, 4), A: action.MoveE},
	})
	var buf bytes.Buffer
	PolicyMap(&buf, rect(1, 1, 6, 6), rect(5, 5, 6, 6), pol, rect(4, 1, 4, 1))
	out := buf.String()
	if !strings.Contains(out, "↗") || !strings.Contains(out, "→") {
		t.Errorf("arrows missing:\n%s", out)
	}
	if !strings.Contains(out, "G") {
		t.Error("goal marker missing")
	}
	if !strings.Contains(out, "#") {
		t.Error("blocked marker missing")
	}
}
