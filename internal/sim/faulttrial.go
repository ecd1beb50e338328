package sim

import (
	"fmt"
	"io"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/fault"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
)

// FaultTrialConfig drives RunFaultTrials: for every (benchmark, trial) pair
// a bioassay is executed twice on identically seeded chips — once clean,
// once under a randomized fault plan derived from the trial seed — and the
// faulted run is checked for hazard violations, completion, and bounded
// completion-time inflation relative to the clean run.
type FaultTrialConfig struct {
	// Seed derives every trial's chip, simulation, and fault-plan seeds.
	Seed uint64
	// Trials is how many fault plans each benchmark is run under.
	Trials int
	// Rate is the nominal mixed fault rate (fault.Mixed); each trial
	// jitters it uniformly in [0.5, 1.5]× so the sweep covers a band
	// rather than a point.
	Rate float64
	// Kinds selects the injected fault classes.
	Kinds fault.Kinds
	// Benchmarks lists the bioassays to run; nil means the six-assay
	// evaluation suite.
	Benchmarks []assay.Benchmark
	// Area is the dispensed droplet area (16 = 4×4, the paper's default).
	Area int
	// Inflation bounds the faulted run's cycle count at
	// Inflation×clean + Slack; beyond it the trial is a violation.
	Inflation float64
	Slack     int
	// KMax overrides the per-execution cycle budget (0 keeps
	// DefaultConfig's).
	KMax int
	// Concurrent runs both the clean and faulted executions on the
	// concurrent executor, so the inflation bound measures fault cost on
	// top of — not instead of — operation-level parallelism.
	Concurrent bool
	// Router builds a fresh router per run; nil means the full
	// graceful-degradation ladder, NewFallback(NewAdaptive(), NewBaseline()).
	Router func() sched.Router
	// Log, when non-nil, receives a line per trial.
	Log io.Writer
}

// DefaultFaultTrialConfig is the nightly-CI configuration: three trials per
// assay at a 5% mixed rate, all fault kinds, 4×4 droplets.
func DefaultFaultTrialConfig() FaultTrialConfig {
	return FaultTrialConfig{
		Seed:      2021,
		Trials:    3,
		Rate:      0.05,
		Kinds:     fault.AllKinds,
		Area:      16,
		Inflation: 3,
		Slack:     150,
	}
}

// FaultTrialResult is the outcome of one (benchmark, trial) pair.
type FaultTrialResult struct {
	Benchmark assay.Benchmark
	Trial     int
	Plan      fault.Plan
	// Clean and Faulted are the two executions (Clean.Success should
	// always hold on a robust chip; a clean failure is itself a
	// violation — the trial proved nothing).
	Clean, Faulted Execution
	// Violation describes why the trial failed, "" when it passed.
	Violation string
}

// Violations counts failed trials in a result set.
func Violations(results []FaultTrialResult) int {
	n := 0
	for _, r := range results {
		if r.Violation != "" {
			n++
		}
	}
	return n
}

func (c FaultTrialConfig) withDefaults() FaultTrialConfig {
	if c.Trials <= 0 {
		c.Trials = 1
	}
	if c.Benchmarks == nil {
		c.Benchmarks = assay.EvaluationBenchmarks
	}
	if c.Area <= 0 {
		c.Area = 16
	}
	if c.Inflation <= 0 {
		c.Inflation = 3
	}
	if c.Slack <= 0 {
		c.Slack = 150
	}
	if c.Router == nil {
		c.Router = func() sched.Router {
			return sched.NewFallback(sched.NewAdaptive(), sched.NewBaseline())
		}
	}
	return c
}

// trialChipConfig is the near-immortal chip of the scheduler tests: smooth
// wear is suppressed so completion-time inflation isolates the injected
// faults.
func trialChipConfig() chip.Config {
	cfg := chip.Default()
	cfg.Normal.Tau1, cfg.Normal.Tau2 = 0.99, 0.999
	cfg.Normal.C1, cfg.Normal.C2 = 5000, 10000
	return cfg
}

// runOnce executes one compiled bioassay on a freshly seeded chip.
func runOnce(cfg Config, plan *route.Plan, router sched.Router, src *randx.Source) (Execution, error) {
	c, err := chip.New(trialChipConfig(), src.Split("chip"))
	if err != nil {
		return Execution{}, err
	}
	return NewRunner(cfg, c, router, src.Split("sim")).Execute(plan)
}

// RunFaultTrials executes the fault-trial sweep and returns one result per
// (benchmark, trial) pair. Only infrastructure failures (an uncompilable
// benchmark, an invalid plan) return an error; trial violations are reported
// in the results.
func RunFaultTrials(cfg FaultTrialConfig) ([]FaultTrialResult, error) {
	cfg = cfg.withDefaults()
	root := randx.New(cfg.Seed)
	var results []FaultTrialResult
	for _, bench := range cfg.Benchmarks {
		a := bench.Build(assay.Layout{W: 60, H: 30}, cfg.Area)
		plan, err := route.Compile(a, 60, 30)
		if err != nil {
			return nil, fmt.Errorf("sim: compiling %s: %w", bench, err)
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			tsrc := root.Split(bench.String()).SplitN("trial", trial)
			rate := cfg.Rate * tsrc.Uniform(0.5, 1.5)
			fp := fault.Mixed(tsrc.Split("faultseed").Seed(), rate, cfg.Kinds)
			res, err := runFaultTrial(cfg, plan, fp, tsrc)
			if err != nil {
				return nil, fmt.Errorf("sim: %s trial %d: %w", bench, trial, err)
			}
			res.Benchmark = bench
			res.Trial = trial
			results = append(results, res)
			if cfg.Log != nil {
				status := "ok"
				if res.Violation != "" {
					status = "VIOLATION: " + res.Violation
				}
				fmt.Fprintf(cfg.Log, "%-15s trial %d  rate %.3f  clean %4d  faulted %4d  fallbacks %d  %s\n",
					bench, trial, rate, res.Clean.Cycles, res.Faulted.Cycles,
					res.Faulted.DegradedJobs+res.Faulted.Divergences, status)
			}
		}
	}
	return results, nil
}

// runFaultTrial runs the clean/faulted pair for one compiled plan.
func runFaultTrial(cfg FaultTrialConfig, plan *route.Plan, fp fault.Plan, tsrc *randx.Source) (FaultTrialResult, error) {
	simCfg := DefaultConfig()
	if cfg.KMax > 0 {
		simCfg.KMax = cfg.KMax
	}
	simCfg.Concurrent = cfg.Concurrent
	// The clean and faulted runs draw from identically labeled child
	// sources, so they see the same chip constants and motion sampling —
	// the only difference is the fault plan.
	clean, err := runOnce(simCfg, plan, cfg.Router(), tsrc.Split("exec"))
	if err != nil {
		return FaultTrialResult{}, err
	}
	faulted, err := runOnce(simCfg.WithFaults(fp), plan, cfg.Router(), tsrc.Split("exec"))
	if err != nil {
		return FaultTrialResult{}, err
	}
	res := FaultTrialResult{Plan: fp, Clean: clean, Faulted: faulted}
	bound := int(cfg.Inflation*float64(clean.Cycles)) + cfg.Slack
	switch {
	case !clean.Success:
		res.Violation = "clean run failed"
	case faulted.HazardViolations > 0:
		res.Violation = fmt.Sprintf("%d hazard violations", faulted.HazardViolations)
	case !faulted.Success:
		res.Violation = fmt.Sprintf("faulted run aborted after %d cycles", faulted.Cycles)
	case faulted.Cycles > bound:
		res.Violation = fmt.Sprintf("completion inflated %d → %d (bound %d)", clean.Cycles, faulted.Cycles, bound)
	}
	return res, nil
}
