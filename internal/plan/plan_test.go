package plan

import (
	"testing"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/sim"
)

func robustChip(t *testing.T, seed uint64) *chip.Chip {
	t.Helper()
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	c, err := chip.New(cfg, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// graphOf drops a benchmark's hand-made placement, keeping its
// location-free sequencing graph.
func graphOf(a *assay.Assay) Graph {
	g := Graph{Name: a.Name}
	for _, mo := range a.MOs {
		g.Ops = append(g.Ops, Op{Type: mo.Type, Pre: mo.Pre, Area: mo.Area, Hold: mo.Hold})
	}
	return g
}

// TestPlaceAllBenchmarks: every benchmark protocol, stripped of its
// hand-made placement, can be re-planned automatically and still compiles.
func TestPlaceAllBenchmarks(t *testing.T) {
	benches := []assay.Benchmark{
		assay.MasterMix, assay.CEP, assay.SerialDilution, assay.NuIP,
		assay.CovidRAT, assay.CovidPCR, assay.ChIP, assay.InVitro,
		assay.GeneExpression, assay.Protein, assay.PCRMix,
	}
	for _, bench := range benches {
		g := graphOf(bench.Build(assay.Layout{W: 60, H: 30}, 16))
		placed, err := NewPlacer(60, 30).Place(g)
		if err != nil {
			t.Errorf("%v: %v", bench, err)
			continue
		}
		if _, err := route.Compile(placed, 60, 30); err != nil {
			t.Errorf("%v: placed assay does not compile: %v", bench, err)
		}
	}
}

// TestPlacedAssaysExecute: automatically placed protocols run to completion
// on the simulator — the integration test that placement actually respects
// droplet lifetimes.
func TestPlacedAssaysExecute(t *testing.T) {
	benches := []assay.Benchmark{
		assay.MasterMix, assay.SerialDilution, assay.CovidPCR, assay.Protein,
	}
	for _, bench := range benches {
		g := graphOf(bench.Build(assay.Layout{W: 60, H: 30}, 16))
		placed, err := NewPlacer(60, 30).Place(g)
		if err != nil {
			t.Fatalf("%v: %v", bench, err)
		}
		plan, err := route.Compile(placed, 60, 30)
		if err != nil {
			t.Fatalf("%v: %v", bench, err)
		}
		src := randx.New(7)
		runner := sim.NewRunner(sim.DefaultConfig(), robustChip(t, 7), sched.NewBaseline(), src)
		exec, err := runner.Execute(plan)
		if err != nil {
			t.Fatalf("%v: %v", bench, err)
		}
		if !exec.Success {
			t.Errorf("%v: auto-placed assay failed: %+v", bench, exec)
		}
	}
}

// TestLifetimeExclusion: two operations whose droplets coexist never share a
// module slot.
func TestLifetimeExclusion(t *testing.T) {
	// Four concurrent mixes (InVitro shape) must take four distinct slots.
	var g Graph
	g.Name = "concurrent"
	for i := 0; i < 4; i++ {
		a := len(g.Ops)
		g.Ops = append(g.Ops, Op{Type: assay.Dis, Area: 16})
		b := len(g.Ops)
		g.Ops = append(g.Ops, Op{Type: assay.Dis, Area: 16})
		m := len(g.Ops)
		g.Ops = append(g.Ops, Op{Type: assay.Mix, Pre: []int{a, b}})
		g.Ops = append(g.Ops, Op{Type: assay.Out, Pre: []int{m}})
	}
	placed, err := NewPlacer(60, 30).Place(g)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[assay.Point]bool{}
	for _, mo := range placed.MOs {
		if mo.Type != assay.Mix {
			continue
		}
		if seen[mo.Loc[0]] {
			t.Errorf("concurrent mixes share slot %v", mo.Loc[0])
		}
		seen[mo.Loc[0]] = true
	}
}

// TestSlotReuseAcrossLevels: sequential operations may reuse a slot once its
// occupant has been consumed.
func TestSlotReuseAcrossLevels(t *testing.T) {
	// A long serial chain: mix → mag → mix → mag … deeper than the slot
	// count would allow without reuse.
	p := NewPlacer(60, 30)
	nslots := len(p.slots)
	var g Graph
	g.Name = "chain"
	prev := 0
	g.Ops = append(g.Ops, Op{Type: assay.Dis, Area: 16})
	for i := 0; i < nslots+4; i++ {
		r := len(g.Ops)
		g.Ops = append(g.Ops, Op{Type: assay.Dis, Area: 16})
		m := len(g.Ops)
		g.Ops = append(g.Ops, Op{Type: assay.Mix, Pre: []int{prev, r}})
		prev = m
	}
	g.Ops = append(g.Ops, Op{Type: assay.Out, Pre: []int{prev}})
	if _, err := p.Place(g); err != nil {
		t.Fatalf("chain deeper than slot count must still place (reuse): %v", err)
	}
}

// TestPlaceExhaustion: more concurrency than slots is reported, not
// silently mangled.
func TestPlaceExhaustion(t *testing.T) {
	p := NewPlacer(28, 30) // few module columns
	n := len(p.slots) + 1
	var g Graph
	g.Name = "too-wide"
	for i := 0; i < n; i++ {
		a := len(g.Ops)
		g.Ops = append(g.Ops, Op{Type: assay.Dis, Area: 9})
		b := len(g.Ops)
		g.Ops = append(g.Ops, Op{Type: assay.Dis, Area: 9})
		m := len(g.Ops)
		g.Ops = append(g.Ops, Op{Type: assay.Mix, Pre: []int{a, b}})
		g.Ops = append(g.Ops, Op{Type: assay.Out, Pre: []int{m}})
	}
	if _, err := p.Place(g); err == nil {
		t.Error("slot exhaustion not reported")
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	bad := Graph{Ops: []Op{{Type: assay.Mix, Pre: []int{0, 0}}}}
	if err := bad.Validate(); err == nil {
		t.Error("self-dependency accepted")
	}
	bad = Graph{Ops: []Op{{Type: assay.Dis}}}
	if err := bad.Validate(); err == nil {
		t.Error("dis without area accepted")
	}
	bad = Graph{Ops: []Op{{Type: assay.Dis, Area: 16}}}
	if err := bad.Validate(); err == nil {
		t.Error("unconsumed droplet accepted")
	}
}

func TestLevels(t *testing.T) {
	g := Graph{Ops: []Op{
		{Type: assay.Dis, Area: 16},
		{Type: assay.Dis, Area: 16},
		{Type: assay.Mix, Pre: []int{0, 1}},
		{Type: assay.Mag, Pre: []int{2}, Hold: 5},
		{Type: assay.Out, Pre: []int{3}},
	}}
	lv := g.levels()
	want := []int{0, 0, 1, 2, 3}
	for i := range want {
		if lv[i] != want[i] {
			t.Errorf("level[%d] = %d, want %d", i, lv[i], want[i])
		}
	}
}
