package meda_test

import (
	"fmt"
	"strings"

	"meda"
)

// ExampleSynthesize synthesizes the running example's routing strategy on a
// healthy chip: a 3×3 droplet crossing a 10×10 region diagonally needs 7
// expected cycles.
func ExampleSynthesize() {
	rj := meda.RoutingJob{
		Start:  meda.Rect{XA: 1, YA: 1, XB: 3, YB: 3},
		Goal:   meda.Rect{XA: 8, YA: 8, XB: 10, YB: 10},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 10, YB: 10},
	}
	healthy := func(x, y int) float64 { return 1 }
	res, err := meda.Synthesize(rj, healthy, meda.DefaultSynthOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("states: %d\n", res.Stats.States)
	fmt.Printf("expected cycles: %.0f\n", res.Value)
	first, _ := res.Policy.Lookup(rj.Start)
	fmt.Printf("first action: %v\n", first)
	// Output:
	// states: 67
	// expected cycles: 7
	// first action: aNE
}

// ExampleParseQuery parses the paper's synthesis query.
func ExampleParseQuery() {
	q, err := meda.ParseQuery("Rmin=? [ G !hazard & F goal ]")
	if err != nil {
		panic(err)
	}
	fmt.Println(q)
	// Output:
	// Rmin=? [ G !hazard & F goal ]
}

// ExampleParseAssay parses a protocol written in the assay language and
// places it with the planner.
func ExampleParseAssay() {
	const protocol = `
assay demo
a = dis 16
b = dis 16
m = mix a b
out m
`
	g, err := meda.ParseAssay(strings.NewReader(protocol))
	if err != nil {
		panic(err)
	}
	cfg := meda.DefaultChipConfig()
	plan, err := meda.CompileGraph(g, cfg.W, cfg.H)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d operations, %d routing jobs\n", g.Name, len(g.Ops), plan.TotalJobs())
	// Output:
	// demo: 4 operations, 5 routing jobs
}

// ExampleNewRunner executes a benchmark bioassay with adaptive routing.
func ExampleNewRunner() {
	src := meda.NewSource(2021)
	cfg := meda.DefaultChipConfig()
	chip, err := meda.NewChip(cfg, src.Split("chip"))
	if err != nil {
		panic(err)
	}
	plan, err := meda.CompileBenchmark(meda.CovidRAT, cfg, 16)
	if err != nil {
		panic(err)
	}
	runner := meda.NewRunner(meda.DefaultSimConfig(), chip, meda.NewAdaptiveRouter(), src.Split("sim"))
	exec, err := runner.Execute(plan)
	if err != nil {
		panic(err)
	}
	fmt.Printf("success: %v\n", exec.Success)
	// Output:
	// success: true
}
