// Command medasynth synthesizes a single droplet routing strategy (Alg. 2)
// and reports the model statistics of Table V. The health matrix is uniform
// (-health) or loaded implicitly by degrading a band of cells (-wall) to
// demonstrate adaptive re-routing. The reported iteration count is the
// value-iteration sweeps run: an Rmin model with every move certain (uniform
// health 1, the default) is solved by shortest paths, and one sweep
// confirms it.
//
//	medasynth -start 1,1,3,3 -goal 8,8,10,10 -hazard 1,1,10,10
//	medasynth -query "Pmax=? [ G !hazard & F goal ]" -wall 6
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"meda"
)

func main() {
	startS := flag.String("start", "1,1,3,3", "start rectangle xa,ya,xb,yb")
	goalS := flag.String("goal", "8,8,10,10", "goal rectangle")
	hazardS := flag.String("hazard", "1,1,10,10", "hazard bounds")
	queryS := flag.String("query", "Rmin=? [ G !hazard & F goal ]", "synthesis query")
	health := flag.Float64("health", 1.0, "uniform degradation level D of every microelectrode")
	wall := flag.Int("wall", 0, "x column of a fully dead wall (0 = none)")
	trace := flag.Bool("trace", true, "print the most-likely trajectory of the strategy")
	flag.Parse()

	rj := meda.RoutingJob{
		Start:  parseRect(*startS),
		Goal:   parseRect(*goalS),
		Hazard: parseRect(*hazardS),
	}
	q, err := meda.ParseQuery(*queryS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medasynth: %v\n", err)
		os.Exit(2)
	}
	opt := meda.DefaultSynthOptions()
	opt.Query = q

	d := *health
	field := func(x, y int) float64 {
		if *wall > 0 && x == *wall {
			return 0
		}
		return d * d // relative EWOD force = D²
	}

	res, err := meda.Synthesize(rj, field, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medasynth: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("query: %s\n", q)
	fmt.Printf("model: %d states, %d transitions, %d choices\n",
		res.Stats.States, res.Stats.Transitions, res.Stats.Choices)
	fmt.Printf("time:  construction %v, synthesis %v (%d iterations)\n",
		res.Stats.Construction, res.Stats.Synthesis, res.Stats.Iterations)
	if !res.Exists() {
		fmt.Println("result: no strategy exists (π = ∅, value = ∞/0)")
		return
	}
	fmt.Printf("value: %.4f\n", res.Value)
	fmt.Printf("policy covers %d droplet positions\n", res.Policy.Len())

	if *trace {
		fmt.Println("most-likely trajectory:")
		pos := rj.Start
		for step := 0; step < 200; step++ {
			if rj.Goal.ContainsRect(pos) {
				fmt.Printf("  %v  — goal reached in %d steps\n", pos, step)
				return
			}
			a, ok := res.Policy.Lookup(pos)
			if !ok {
				fmt.Printf("  %v  — policy undefined (unreachable position)\n", pos)
				return
			}
			fmt.Printf("  %v  %v\n", pos, a)
			pos = a.Apply(pos)
		}
		fmt.Println("  ... (trace truncated)")
	}
}

func parseRect(s string) meda.Rect {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		fmt.Fprintf(os.Stderr, "medasynth: rectangle %q must be xa,ya,xb,yb\n", s)
		os.Exit(2)
	}
	var v [4]int
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "medasynth: bad coordinate %q\n", p)
			os.Exit(2)
		}
		v[i] = n
	}
	return meda.Rect{XA: v[0], YA: v[1], XB: v[2], YB: v[3]}
}
