package mdp_test

import (
	"testing"

	"meda"
	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/mdp"
	"meda/internal/randx"
	"meda/internal/smg"
	"meda/internal/synth"
)

// TestChangeDrivenSweepsExactOnAssays runs the bit-identity check of
// change-driven Gauss-Seidel against full sweeps over every routing job of
// the six evaluation bioassays: on a healthy chip with no obstacle and with
// one and two obstacle blocks inside the job's window, where every model is
// deterministic with unit costs, and on a worn chip whose health codes vary
// across each job's window.
func TestChangeDrivenSweepsExactOnAssays(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping assay-wide exactness check in -short mode")
	}
	cfg := chip.Default()
	wornCfg := cfg
	wornCfg.Normal = degrade.ParamRange{Tau1: 0.3, Tau2: 0.6, C1: 20, C2: 60}
	worn, err := chip.New(wornCfg, randx.New(16))
	if err != nil {
		t.Fatal(err)
	}
	src := randx.New(17)
	for i := 0; i < 3000; i++ {
		x, y := 1+src.IntN(cfg.W-3), 1+src.IntN(cfg.H-3)
		worn.Actuate(geom.Rect{XA: x, YA: y, XB: x + 3, YB: y + 3})
	}
	levels := map[float64]bool{}
	for y := 1; y <= cfg.H; y++ {
		for x := 1; x <= cfg.W; x++ {
			levels[worn.ObservedForceField()(x, y)] = true
		}
	}
	if len(levels) < 3 {
		t.Fatalf("worn chip shows %d force levels, want a spread of health codes", len(levels))
	}
	healthy := func(x, y int) float64 { return 1 }
	fields := []struct {
		name   string
		field  func(x, y int) float64
		blocks int
	}{
		{"healthy", healthy, 0},
		{"healthy, 1 block", healthy, 1},
		{"healthy, 2 blocks", healthy, 2},
		{"worn", worn.ObservedForceField(), 0},
	}
	blockSrc := randx.New(18)
	backups, full := 0, 0
	for _, bench := range assay.EvaluationBenchmarks {
		plan, err := meda.CompileBenchmark(bench, cfg, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, mo := range plan.MOs {
			for _, rj := range mo.Jobs {
				rj = synth.NormalizeDispense(rj, cfg.W, cfg.H)
				for _, f := range fields {
					opt := smg.DefaultModelOptions()
					for i := 0; i < f.blocks; i++ {
						x := rj.Hazard.XA + blockSrc.IntN(rj.Hazard.Width())
						y := rj.Hazard.YA + blockSrc.IntN(rj.Hazard.Height())
						opt.Blocked = append(opt.Blocked, geom.Rect{XA: x, YA: y, XB: x + 1, YB: y + 1})
					}
					model, err := smg.Induce(rj.Hazard, rj.Start, rj.Goal, f.field, opt)
					if err != nil {
						t.Fatalf("%v %s (%s): induce: %v", bench, rj.Name(), f.name, err)
					}
					b, fb, err := mdp.DiffAgainstFullSweep(model.M, model.Goal, model.Hazard, mdp.SolveOptions{})
					if err != nil {
						t.Fatalf("%v %s (%s): %v", bench, rj.Name(), f.name, err)
					}
					backups += b
					full += fb
				}
			}
		}
	}
	if backups >= full {
		t.Errorf("change-driven sweeps evaluated %d backups, no fewer than the %d of full sweeps", backups, full)
	}
	t.Logf("backups: %d of %d full-sweep backups (%.0f%% skipped)", backups, full, 100*(1-float64(backups)/float64(full)))
}
