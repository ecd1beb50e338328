package assay

import "testing"

// TestArityMatchesTableIII checks the (in, out) droplet counts of Table III.
func TestArityMatchesTableIII(t *testing.T) {
	cases := []struct {
		op      Op
		in, out int
	}{
		{Dis, 0, 1},
		{Out, 1, 0},
		{Dsc, 1, 0},
		{Mix, 2, 1},
		{Spt, 1, 2},
		{Dlt, 2, 2},
		{Mag, 1, 1},
	}
	for _, c := range cases {
		in, out := c.op.Arity()
		if in != c.in || out != c.out {
			t.Errorf("%v arity = (%d,%d), want (%d,%d)", c.op, in, out, c.in, c.out)
		}
	}
}

func TestOpNames(t *testing.T) {
	names := map[Op]string{Dis: "dis", Out: "out", Dsc: "dsc", Mix: "mix", Spt: "spt", Dlt: "dlt", Mag: "mag"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d name = %q, want %q", op, op.String(), want)
		}
	}
	if Op(99).String() != "unknown" {
		t.Error("unknown op name")
	}
	if in, out := Op(99).Arity(); in != 0 || out != 0 {
		t.Error("unknown op arity")
	}
}

func TestLocsPerOp(t *testing.T) {
	for _, op := range []Op{Dis, Out, Dsc, Mix, Mag} {
		if op.Locs() != 1 {
			t.Errorf("%v needs %d locs, want 1", op, op.Locs())
		}
	}
	if Spt.Locs() != 2 || Dlt.Locs() != 2 {
		t.Error("spt/dlt need two locations")
	}
}

func defaultLayout() Layout { return Layout{W: 60, H: 30} }

// TestAllBenchmarksValid: every generated benchmark is a well-formed
// sequencing graph at every studied droplet size.
func TestAllBenchmarksValid(t *testing.T) {
	all := []Benchmark{MasterMix, CEP, SerialDilution, NuIP, CovidRAT, CovidPCR, ChIP, InVitro, GeneExpression, Protein, PCRMix}
	for _, bm := range all {
		for _, side := range []int{3, 4, 5, 6} {
			a := bm.Build(defaultLayout(), side*side)
			if a == nil {
				t.Fatalf("%v: nil assay", bm)
			}
			if err := a.Validate(); err != nil {
				t.Errorf("%v (droplet %d×%d): %v", bm, side, side, err)
			}
		}
	}
}

func TestBenchmarkNames(t *testing.T) {
	if MasterMix.String() != "Master-Mix" || SerialDilution.String() != "Serial-Dilution" ||
		CovidRAT.String() != "COVID-RAT" || Benchmark(99).String() != "unknown" {
		t.Error("benchmark names wrong")
	}
	if Benchmark(99).Build(defaultLayout(), 16) != nil {
		t.Error("unknown benchmark must build nil")
	}
}

// TestBenchmarkLengthOrdering: the paper's adaptive-routing win grows with
// assay length; the suite must actually span short → long. COVID-RAT is the
// shortest; Serial Dilution and NuIP are among the longest.
func TestBenchmarkLengthOrdering(t *testing.T) {
	l := defaultLayout()
	length := func(b Benchmark) int { return b.Build(l, 16).Len() }
	rat := length(CovidRAT)
	for _, b := range []Benchmark{MasterMix, CEP, SerialDilution, NuIP, CovidPCR} {
		if length(b) <= rat {
			t.Errorf("%v (%d MOs) should be longer than COVID-RAT (%d)", b, length(b), rat)
		}
	}
	if length(SerialDilution) < 15 || length(NuIP) < 15 {
		t.Error("long benchmarks should have at least 15 operations")
	}
}

func TestEvaluationSuiteComposition(t *testing.T) {
	if len(EvaluationBenchmarks) != 6 {
		t.Fatalf("evaluation suite has %d assays, want 6", len(EvaluationBenchmarks))
	}
	if len(CorrelationBenchmarks) != 3 {
		t.Fatalf("correlation suite has %d assays, want 3", len(CorrelationBenchmarks))
	}
}

func TestCountByType(t *testing.T) {
	counts := make(map[Op]int)
	for _, mo := range SerialDilution.Build(defaultLayout(), 16).MOs {
		counts[mo.Type]++
	}
	if counts[Dlt] != 6 {
		t.Errorf("serial dilution has %d dlt ops, want 6", counts[Dlt])
	}
	if counts[Dis] != 7 {
		t.Errorf("serial dilution has %d dis ops, want 7", counts[Dis])
	}
	if counts[Out] != 1 {
		t.Errorf("serial dilution has %d out ops, want 1", counts[Out])
	}
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	// Forward dependency.
	bad := &Assay{Name: "bad", MOs: []MO{
		{ID: 0, Type: Mag, Pre: []int{1}, Loc: []Point{{1, 1}}},
		{ID: 1, Type: Dis, Loc: []Point{{1, 1}}, Area: 16},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("forward dependency accepted")
	}
	// Wrong arity.
	bad = &Assay{Name: "bad", MOs: []MO{
		{ID: 0, Type: Dis, Loc: []Point{{1, 1}}, Area: 16},
		{ID: 1, Type: Mix, Pre: []int{0}, Loc: []Point{{1, 1}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("mix with one input accepted")
	}
	// Unconsumed droplet.
	bad = &Assay{Name: "bad", MOs: []MO{
		{ID: 0, Type: Dis, Loc: []Point{{1, 1}}, Area: 16},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("unconsumed droplet accepted")
	}
	// Missing area on dis.
	bad = &Assay{Name: "bad", MOs: []MO{
		{ID: 0, Type: Dis, Loc: []Point{{1, 1}}},
		{ID: 1, Type: Out, Pre: []int{0}, Loc: []Point{{1, 1}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("dis without area accepted")
	}
	// Non-positional ID.
	bad = &Assay{Name: "bad", MOs: []MO{
		{ID: 5, Type: Dis, Loc: []Point{{1, 1}}, Area: 16},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("non-positional ID accepted")
	}
	// Over-consumed droplet.
	bad = &Assay{Name: "bad", MOs: []MO{
		{ID: 0, Type: Dis, Loc: []Point{{1, 1}}, Area: 16},
		{ID: 1, Type: Out, Pre: []int{0}, Loc: []Point{{1, 1}}},
		{ID: 2, Type: Out, Pre: []int{0}, Loc: []Point{{1, 1}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("doubly consumed droplet accepted")
	}
	// Wrong number of locations.
	bad = &Assay{Name: "bad", MOs: []MO{
		{ID: 0, Type: Dis, Loc: []Point{{1, 1}}, Area: 16},
		{ID: 1, Type: Spt, Pre: []int{0}, Loc: []Point{{1, 1}}},
		{ID: 2, Type: Out, Pre: []int{1}, Loc: []Point{{1, 1}}},
		{ID: 3, Type: Out, Pre: []int{1}, Loc: []Point{{1, 1}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("split with one location accepted")
	}
}

// TestLayoutPlacementsOnChip: all generated module/port/reservoir centers
// must denote rectangles that fit a 60×30 chip for droplets up to 6×6.
func TestLayoutPlacementsOnChip(t *testing.T) {
	l := defaultLayout()
	inChip := func(p Point) bool {
		// A 6×6 module centered at p spans p±3; require it to fit with
		// its center coordinates inside the chip.
		return p.X >= 1 && p.X <= 60 && p.Y >= 1 && p.Y <= 30
	}
	for i := 0; i < 12; i++ {
		if !inChip(l.Reservoir(i)) {
			t.Errorf("reservoir %d at %v off-chip", i, l.Reservoir(i))
		}
		if !inChip(l.Port(i)) {
			t.Errorf("port %d at %v off-chip", i, l.Port(i))
		}
		if !inChip(l.Module(i)) {
			t.Errorf("module %d at %v off-chip", i, l.Module(i))
		}
	}
}

// TestMagHoldTimes: mag operations carry positive hold times (they model
// sensing/incubation).
func TestMagHoldTimes(t *testing.T) {
	for _, bm := range []Benchmark{CEP, NuIP, CovidRAT, CovidPCR, ChIP, InVitro, GeneExpression} {
		a := bm.Build(defaultLayout(), 16)
		for _, mo := range a.MOs {
			if mo.Type == Mag && mo.Hold <= 0 {
				t.Errorf("%v: mag M%d has no hold time", bm, mo.ID)
			}
		}
	}
}

// TestFig12Example reconstructs the sequence-graph example of Fig. 12:
// two dispenses, a mix, and a mag.
func TestFig12Example(t *testing.T) {
	b := builder{name: "fig12"}
	m1 := b.dis(Point{17.5, 2.5}, 16)
	m2 := b.dis(Point{17.5, 28.5}, 16)
	m3 := b.mix(m1, m2, Point{10.5, 15.5})
	m4 := b.mag(m3, Point{40.5, 15.5}, 10)
	b.out(m4, Point{58.5, 15.5})
	a := b.assay()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.MOs[2].Type != Mix || a.MOs[2].Pre[0] != 0 || a.MOs[2].Pre[1] != 1 {
		t.Error("mix wiring wrong")
	}
}

// TestExtensionBenchmarks: the two extra protocols have their promised
// operation mixes.
func TestExtensionBenchmarks(t *testing.T) {
	protein := Protein.Build(defaultLayout(), 16)
	if err := protein.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := make(map[Op]int)
	for _, mo := range protein.MOs {
		counts[mo.Type]++
	}
	if counts[Spt] != 3 {
		t.Errorf("protein has %d splits, want 3", counts[Spt])
	}
	if counts[Out] != 4 {
		t.Errorf("protein has %d outputs, want 4", counts[Out])
	}
	pcr := PCRMix.Build(defaultLayout(), 16)
	if err := pcr.Validate(); err != nil {
		t.Fatal(err)
	}
	clear(counts)
	for _, mo := range pcr.MOs {
		counts[mo.Type]++
	}
	if counts[Mix] != 7 {
		t.Errorf("pcr-mix has %d mixes, want 7", counts[Mix])
	}
	if counts[Dis] != 8 {
		t.Errorf("pcr-mix has %d dispenses, want 8", counts[Dis])
	}
}
