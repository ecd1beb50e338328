// Differential test of the solver on real models: every routing job of the
// six evaluation bioassays is induced on a worn chip and solved with the
// change-driven Gauss-Seidel solver and with the jacobi reference; both
// must agree on values (within tolerance) and on strategy quality, judged
// by policy evaluation.
package mdp_test

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

	for _, bench := range assay.EvaluationBenchmarks {
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
					rg, err := model.M.MinExpectedReward(model.Goal, model.Hazard, mdp.SolveOptions{})
					if err != nil {
						t.Fatalf("%s: gauss-seidel: %v", rj.Name(), err)
					}
					vg, err := model.M.EvaluatePolicyReward(rg.Strategy, model.Goal, mdp.SolveOptions{})
					if err != nil {
						t.Fatalf("%s: evaluate GS policy: %v", rj.Name(), err)
					}
					rjac, err := mdp.JacobiMinExpectedReward(model.M, model.Goal, model.Hazard, mdp.SolveOptions{})
					if err != nil {
						t.Fatalf("%s: jacobi: %v", rj.Name(), err)
					}
					for s := range rg.Values {
						a, b := rg.Values[s], rjac.Values[s]
						if math.IsInf(a, 1) != math.IsInf(b, 1) {
							t.Fatalf("%s state %d: finiteness disagrees (%v GS vs %v jacobi)", rj.Name(), s, a, b)
						}
						if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-6 {
							t.Fatalf("%s state %d: %v (GS) vs %v (jacobi)", rj.Name(), s, a, b)
						}
					}
					// Both strategies must be optimal: evaluating the
					// jacobi policy under the model must reproduce the GS
					// policy's value at the initial state.
					vj, err := model.M.EvaluatePolicyReward(rjac.Strategy, model.Goal, mdp.SolveOptions{})
					if err != nil {
						t.Fatalf("%s: evaluate jacobi policy: %v", rj.Name(), err)
					}
					ds, db := vg[model.Init], vj[model.Init]
					if math.IsInf(ds, 1) != math.IsInf(db, 1) || (!math.IsInf(ds, 1) && math.Abs(ds-db) > 1e-6) {
						t.Fatalf("%s: strategy quality differs: %v (GS) vs %v (jacobi)", rj.Name(), ds, db)
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

// BenchmarkAblationSolver compares the solver's Gauss–Seidel value
// iteration with the jacobi reference on a 30×30 routing model:
//
//	go test -run '^$' -bench BenchmarkAblationSolver ./internal/mdp/
func BenchmarkAblationSolver(b *testing.B) {
	worn := func(x, y int) float64 { return 0.81 }
	model, err := smg.Induce(
		meda.Rect{XA: 1, YA: 1, XB: 30, YB: 30},
		meda.Rect{XA: 1, YA: 1, XB: 4, YB: 4},
		meda.Rect{XA: 27, YA: 27, XB: 30, YB: 30},
		worn, smg.DefaultModelOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		solve func(*mdp.MDP, []bool, []bool, mdp.SolveOptions) (mdp.Result, error)
	}{
		{"gauss-seidel", (*mdp.MDP).MinExpectedReward},
		{"jacobi", mdp.JacobiMinExpectedReward},
	} {
		b.Run(v.name, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := v.solve(model.M, model.Goal, model.Hazard, mdp.SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}
