// Morphing: the shape-changing actions A_↓ / A_↑ (Sec. V-B, Fig. 9). Rows
// at the top of a corridor are dead, so a 4×4 droplet pays a failure penalty
// on every step; with morphing enabled the synthesizer reshapes the droplet
// to 5×3, crosses in the healthy rows at full force, and reshapes back —
// visibly cheaper in expected cycles.
package main

import (
	"fmt"
	"log"
	"os"

	"meda"
	"meda/internal/vis"
)

func main() {
	rj := meda.RoutingJob{
		Start:  meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
		Goal:   meda.Rect{XA: 11, YA: 1, XB: 15, YB: 5}, // tolerant: fits both shapes
		Hazard: meda.Rect{XA: 1, YA: 1, XB: 15, YB: 5},
	}
	// Rows 4..5 of the corridor x ∈ [6, 12] are dead.
	field := func(x, y int) float64 {
		if x >= 6 && x <= 12 && y >= 4 {
			return 0
		}
		return 1
	}
	fmt.Println("corridor (G = goal region, # = dead rows):")
	vis.PolicyMap(os.Stdout, rj.Hazard, rj.Goal, meda.Policy{}, meda.Rect{XA: 6, YA: 4, XB: 12, YB: 5})
	fmt.Println()

	solve := func(morph bool) float64 {
		opt := meda.DefaultSynthOptions()
		opt.Model.AllowMorph = morph
		res, err := meda.Synthesize(rj, field, opt)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Exists() {
			log.Fatal("no strategy")
		}
		label := "rigid 4×4"
		if morph {
			label = "with morphing"
		}
		fmt.Printf("%-14s expected %.2f cycles (%d states)\n", label, res.Value, res.Stats.States)
		if morph {
			// Show the morphing trajectory.
			fmt.Println("  most-likely trajectory:")
			pos := rj.Start
			for i := 0; i < 30 && !rj.Goal.ContainsRect(pos); i++ {
				a, ok := res.Policy.Lookup(pos)
				if !ok {
					break
				}
				fmt.Printf("    %v  %v  (%d×%d)\n", pos, a, pos.Width(), pos.Height())
				pos = a.Apply(pos)
			}
			fmt.Printf("    %v  arrived as %d×%d\n", pos, pos.Width(), pos.Height())
		}
		return res.Value
	}
	rigid := solve(false)
	morphed := solve(true)
	fmt.Printf("\nmorphing saves %.1f expected cycles on this corridor\n", rigid-morphed)
}
