// Differential test of the CSR solver engine on real models: every routing
// job of the six evaluation bioassays is induced on a worn chip and solved
// with Gauss-Seidel and with Jacobi; both must agree on values (within
// tolerance) and on strategy quality, judged by policy evaluation.
package meda_test

import (
	"math"
	"testing"

	"meda"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/mdp"
	"meda/internal/smg"
	"meda/internal/synth"
)

func TestSolversAgreeOnBenchmarkAssays(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping assay-wide solver differential in -short mode")
	}
	worn := func(x, y int) float64 { return 0.81 }
	cfg := chip.Default()
	gs := mdp.SolveOptions{Method: mdp.GaussSeidel}
	alts := []mdp.SolveOptions{
		{Method: mdp.Jacobi},
	}

	for _, bench := range assay.EvaluationBenchmarks {
		bench := bench
		t.Run(bench.String(), func(t *testing.T) {
			plan, err := meda.CompileBenchmark(bench, cfg, 16)
			if err != nil {
				t.Fatal(err)
			}
			jobs := 0
			for _, mo := range plan.MOs {
				for _, rj := range mo.Jobs {
					rj = synth.NormalizeDispense(rj, cfg.W, cfg.H)
					model, err := smg.Induce(rj.Hazard, rj.Start, rj.Goal, worn, smg.DefaultModelOptions())
					if err != nil {
						t.Fatalf("%s: induce: %v", rj.Name(), err)
					}
					rg, err := model.M.MinExpectedReward(model.Goal, model.Hazard, gs)
					if err != nil {
						t.Fatalf("%s: gauss-seidel: %v", rj.Name(), err)
					}
					vg, err := model.M.EvaluatePolicyReward(rg.Strategy, model.Goal, mdp.SolveOptions{})
					if err != nil {
						t.Fatalf("%s: evaluate GS policy: %v", rj.Name(), err)
					}
					for _, alt := range alts {
						ra, err := model.M.MinExpectedReward(model.Goal, model.Hazard, alt)
						if err != nil {
							t.Fatalf("%s: %v: %v", rj.Name(), alt.Method, err)
						}
						for s := range rg.Values {
							a, b := rg.Values[s], ra.Values[s]
							if math.IsInf(a, 1) != math.IsInf(b, 1) {
								t.Fatalf("%s state %d: finiteness disagrees (%v GS vs %v %v)", rj.Name(), s, a, b, alt.Method)
							}
							if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-6 {
								t.Fatalf("%s state %d: %v (GS) vs %v (%v)", rj.Name(), s, a, b, alt.Method)
							}
						}
						// All strategies must be optimal: evaluating each
						// method's policy under the model must reproduce the
						// GS policy's value at the initial state.
						va, err := model.M.EvaluatePolicyReward(ra.Strategy, model.Goal, mdp.SolveOptions{})
						if err != nil {
							t.Fatalf("%s: evaluate %v policy: %v", rj.Name(), alt.Method, err)
						}
						ds, db := vg[model.Init], va[model.Init]
						if math.IsInf(ds, 1) != math.IsInf(db, 1) || (!math.IsInf(ds, 1) && math.Abs(ds-db) > 1e-6) {
							t.Fatalf("%s: strategy quality differs: %v (GS) vs %v (%v)", rj.Name(), ds, db, alt.Method)
						}
					}
					jobs++
				}
			}
			if jobs == 0 {
				t.Fatal("assay produced no routing jobs")
			}
		})
	}
}
