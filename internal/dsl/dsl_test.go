package dsl

import (
	"strings"
	"testing"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/plan"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/sim"
)

const dilution = `
# two-stage serial dilution
assay my-dilution

sample  = dis 16
buffer0 = dis 16
waste0, carried0 = dlt sample buffer0
dsc waste0
buffer1 = dis 16
waste1, carried1 = dlt carried0 buffer1
dsc waste1
result  = mag carried1 hold=20
out result
`

func TestParseDilution(t *testing.T) {
	g, err := ParseString(dilution)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "my-dilution" {
		t.Errorf("name = %q", g.Name)
	}
	if len(g.Ops) != 9 {
		t.Fatalf("ops = %d, want 9", len(g.Ops))
	}
	counts := map[assay.Op]int{}
	for _, op := range g.Ops {
		counts[op.Type]++
	}
	if counts[assay.Dlt] != 2 || counts[assay.Dis] != 3 || counts[assay.Dsc] != 2 ||
		counts[assay.Mag] != 1 || counts[assay.Out] != 1 {
		t.Errorf("op mix = %v", counts)
	}
	// mag hold option parsed.
	for _, op := range g.Ops {
		if op.Type == assay.Mag && op.Hold != 20 {
			t.Errorf("mag hold = %d, want 20", op.Hold)
		}
	}
}

// TestParsedAssayExecutes: a DSL protocol places and runs end to end.
func TestParsedAssayExecutes(t *testing.T) {
	g, err := ParseString(dilution)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := plan.NewPlacer(60, 30).Place(g)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := route.Compile(placed, 60, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	src := randx.New(3)
	c, err := chip.New(cfg, src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunner(sim.DefaultConfig(), c, sched.NewAdaptive(sched.DefaultCacheSize), src.Split("sim"))
	exec, err := runner.Execute(pl)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Success {
		t.Fatalf("DSL assay failed: %+v", exec)
	}
}

func TestParseSplitAndMix(t *testing.T) {
	src := `
assay split-mix
p = dis area=9
l, r = spt p
rg = dis 9
m = mix l rg
out m
out r
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Ops) != 6 {
		t.Fatalf("ops = %d, want 6", len(g.Ops))
	}
	if g.Ops[1].Type != assay.Spt || g.Ops[3].Type != assay.Mix {
		t.Error("op order wrong")
	}
	// mix consumes the split's first output and the fresh dispense.
	if g.Ops[3].Pre[0] != 1 || g.Ops[3].Pre[1] != 2 {
		t.Errorf("mix pre = %v", g.Ops[3].Pre)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown op", "x = frob 16\nout x"},
		{"unknown droplet", "out ghost"},
		{"double consume", "a = dis 16\nout a\ndsc a"},
		{"unconsumed", "a = dis 16\nb = dis 16\nout a"},
		{"dis without area", "a = dis\nout a"},
		{"mix arity", "a = dis 16\nm = mix a\nout m"},
		{"spt one name", "a = dis 16\nl = spt a\nout l"},
		{"duplicate name", "a = dis 16\na = dis 16\nout a\nout a"},
		{"out with name", "a = dis 16\nb = out a"},
		{"hold on mix", "a = dis 16\nb = dis 16\nm = mix a b hold=5\nout m"},
		{"area on mag", "a = dis 16\nm = mag a area=5\nout m"},
		{"bad option value", "a = dis 16\nm = mag a hold=soon\nout m"},
		{"keyword as name", "mix = dis 16\nout mix"},
		{"numeric name", "7 = dis 16\nout 7"},
		{"duplicate header", "assay a\nassay b\nx = dis 16\nout x"},
		{"empty header", "assay \nx = dis 16\nout x"},
		{"empty", "\n# only comments\n"},
		{"empty name", ", b = spt q"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.src); err == nil {
			t.Errorf("%s: accepted:\n%s", c.name, c.src)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "  assay   padded  \n\n  # full comment line\n a = dis 16   # trailing comment\nout a\n"
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "padded" || len(g.Ops) != 2 {
		t.Errorf("g = %+v", g)
	}
}

func TestMagDefaultHold(t *testing.T) {
	g, err := ParseString("a = dis 16\nm = mag a\nout m")
	if err != nil {
		t.Fatal(err)
	}
	if g.Ops[1].Hold <= 0 {
		t.Error("mag without hold= must get a positive default")
	}
}

func TestParseReader(t *testing.T) {
	g, err := Parse(strings.NewReader(dilution))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Ops) == 0 {
		t.Fatal("empty graph from reader")
	}
}
