// Quickstart: synthesize an adaptive droplet routing strategy for a single
// routing job and execute a benchmark bioassay on a simulated MEDA biochip.
package main

import (
	"fmt"
	"log"

	"meda"
)

func main() {
	// 1. Synthesize a routing strategy (Alg. 2): move a 3×3 droplet from
	// the south-west to the north-east of a 10×10 region, minimizing the
	// expected number of operational cycles.
	rj := meda.RoutingJob{
		Start:  meda.Rect{XA: 1, YA: 1, XB: 3, YB: 3},
		Goal:   meda.Rect{XA: 8, YA: 8, XB: 10, YB: 10},
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 10, YB: 10},
	}
	healthy := func(x, y int) float64 { return 1 }
	res, err := meda.Synthesize(rj, healthy, meda.DefaultSynthOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized strategy: %d states, expected %v cycles\n",
		res.Stats.States, res.Value)
	pos := rj.Start
	for !rj.Goal.ContainsRect(pos) {
		a, ok := res.Policy.Lookup(pos)
		if !ok {
			fmt.Printf("  at %v: no action\n", pos)
			break
		}
		fmt.Printf("  at %v: %v\n", pos, a)
		pos = a.Apply(pos)
	}
	fmt.Printf("  at %v: goal reached\n\n", pos)

	// 2. Execute a full bioassay with the adaptive router.
	src := meda.NewSource(1)
	cfg := meda.DefaultChipConfig()
	c, err := meda.NewChip(cfg, src.Split("chip"))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := meda.CompileBenchmark(meda.MasterMix, cfg, 16)
	if err != nil {
		log.Fatal(err)
	}
	runner := meda.NewRunner(meda.DefaultSimConfig(), c, meda.NewAdaptiveRouter(), src.Split("sim"))
	exec, err := runner.Execute(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Master-Mix: success=%v in %d cycles (%d routing jobs)\n",
		exec.Success, exec.Cycles, exec.JobsCompleted)
}
