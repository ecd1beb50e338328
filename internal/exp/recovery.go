package exp

import (
	"io"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/sim"
	"meda/internal/stats"
)

// RecoveryConfig configures the proactive-vs-reactive extension experiment:
// the paper argues (Sec. I–II) that proactively avoiding degraded
// microelectrodes beats reactive error recovery, which "may require
// discarding current droplets and repeating a number of microfluidic
// operations". This experiment quantifies that claim on fault-heavy chips
// by racing three controllers:
//
//	baseline            — health-blind shortest paths, no recovery
//	reactive            — health-blind shortest paths + roll-back recovery
//	adaptive (proactive)— the paper's synthesis framework
type RecoveryConfig struct {
	Seed          uint64
	Chip          chip.Config
	FaultFraction float64
	FailAfterLo   int
	FailAfterHi   int
	Trials        int
	KMax          int
	Assays        []assay.Benchmark
	Area          int
}

// DefaultRecoveryConfig uses heavier clustered faults than Fig. 16 so that
// pure retrial visibly fails and recovery has something to do.
func DefaultRecoveryConfig(seed uint64) RecoveryConfig {
	return RecoveryConfig{
		Seed:          seed,
		Chip:          chip.Default(),
		FaultFraction: 0.35,
		FailAfterLo:   2,
		FailAfterHi:   30,
		Trials:        10,
		KMax:          1000,
		Assays:        []assay.Benchmark{assay.CEP, assay.SerialDilution, assay.NuIP},
		Area:          16,
	}
}

// RecoveryRow is one (assay, controller) cell of the extension experiment.
type RecoveryRow struct {
	Assay      string
	Controller string
	// SuccessRate is the fraction of executions completing within KMax.
	SuccessRate float64
	// MeanCycles ± SD over all executions (aborts count KMax).
	MeanCycles float64
	SD         float64
	// MeanRollbacks and MeanRedone average the recovery effort (reactive
	// controller only).
	MeanRollbacks float64
	MeanRedone    float64
}

// Recovery runs the extension experiment: one execution per fresh chip, the
// same chips across the three controllers.
func Recovery(cfg RecoveryConfig) ([]RecoveryRow, error) {
	type controller struct {
		name     string
		router   func() sched.Router
		recovery bool
	}
	controllers := []controller{
		{"baseline", func() sched.Router { return sched.NewBaseline() }, false},
		{"reactive", func() sched.Router { return sched.NewBaseline() }, true},
		{"adaptive", func() sched.Router { return adaptiveRouter() }, false},
	}
	var out []RecoveryRow
	for _, bench := range cfg.Assays {
		a := bench.Build(assay.Layout{W: cfg.Chip.W, H: cfg.Chip.H}, cfg.Area)
		plan, err := route.Compile(a, cfg.Chip.W, cfg.Chip.H)
		if err != nil {
			return nil, err
		}
		for _, ctl := range controllers {
			var cycles, rollbacks, redone []float64
			successes := 0
			for trial := 0; trial < cfg.Trials; trial++ {
				src := randx.New(cfg.Seed).Split(bench.String()).SplitN("trial", trial)
				chipCfg := cfg.Chip
				chipCfg.Faults = degrade.FaultPlan{
					Mode:        degrade.FaultClustered,
					Fraction:    cfg.FaultFraction,
					FailAfterLo: cfg.FailAfterLo,
					FailAfterHi: cfg.FailAfterHi,
				}
				c, err := chip.New(chipCfg, src.Split("chip"))
				if err != nil {
					return nil, err
				}
				simCfg := baseSimConfig()
				simCfg.KMax = cfg.KMax
				simCfg.Recovery = ctl.recovery
				runner := sim.NewRunner(simCfg, c, ctl.router(), src.Split("sim"))
				exec, err := runner.Execute(plan)
				if err != nil {
					return nil, err
				}
				cycles = append(cycles, float64(exec.Cycles))
				rollbacks = append(rollbacks, float64(exec.Rollbacks))
				redone = append(redone, float64(exec.RedoneOps))
				if exec.Success {
					successes++
				}
			}
			mean, sd := stats.MeanStd(cycles)
			out = append(out, RecoveryRow{
				Assay:         bench.String(),
				Controller:    ctl.name,
				SuccessRate:   float64(successes) / float64(cfg.Trials),
				MeanCycles:    mean,
				SD:            sd,
				MeanRollbacks: stats.Mean(rollbacks),
				MeanRedone:    stats.Mean(redone),
			})
		}
	}
	return out, nil
}

// RenderRecovery writes the extension-experiment table.
func RenderRecovery(w io.Writer, rows []RecoveryRow) {
	fprintf(w, "Extension — proactive avoidance vs reactive roll-back recovery\n")
	fprintf(w, "(clustered hard faults; one execution per fresh chip)\n")
	tw := newTable(w)
	fprintf(tw, "assay\tcontroller\tsuccess\tmean k\tSD\trollbacks\tredone ops\n")
	for _, r := range rows {
		fprintf(tw, "%s\t%s\t%.2f\t%.0f\t%.0f\t%.1f\t%.1f\n",
			r.Assay, r.Controller, r.SuccessRate, r.MeanCycles, r.SD, r.MeanRollbacks, r.MeanRedone)
	}
	tw.Flush()
}
