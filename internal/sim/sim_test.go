package sim

import (
	"testing"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
)

func robustChipConfig() chip.Config {
	// Near-immortal microelectrodes: isolates scheduler logic from wear.
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	return cfg
}

func newRunner(t *testing.T, cfg chip.Config, router sched.Router, seed uint64) *Runner {
	t.Helper()
	src := randx.New(seed)
	c, err := chip.New(cfg, src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	return NewRunner(DefaultConfig(), c, router, src.Split("sim"))
}

func compile(t *testing.T, bench assay.Benchmark, area int) *route.Plan {
	t.Helper()
	a := bench.Build(assay.Layout{W: 60, H: 30}, area)
	plan, err := route.Compile(a, 60, 30)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestExecuteMasterMixBaseline: on a robust chip the baseline completes the
// shortest assay well within the budget.
func TestExecuteMasterMixBaseline(t *testing.T) {
	r := newRunner(t, robustChipConfig(), sched.NewBaseline(), 1)
	exec, err := r.Execute(compile(t, assay.MasterMix, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Success {
		t.Fatalf("master-mix failed: %+v", exec)
	}
	if exec.Cycles < 10 || exec.Cycles >= 1000 {
		t.Errorf("cycles = %d, implausible", exec.Cycles)
	}
	if exec.JobsCompleted == 0 {
		t.Error("no jobs completed")
	}
}

// TestExecuteAllBenchmarksAdaptive: every evaluation benchmark completes
// under the adaptive router on a robust chip.
func TestExecuteAllBenchmarksAdaptive(t *testing.T) {
	for _, bench := range assay.EvaluationBenchmarks {
		r := newRunner(t, robustChipConfig(), sched.NewAdaptive(), 2)
		exec, err := r.Execute(compile(t, bench, 16))
		if err != nil {
			t.Fatalf("%v: %v", bench, err)
		}
		if !exec.Success {
			t.Errorf("%v failed: %+v", bench, exec)
		}
	}
}

// TestExecuteAllBenchmarksBaseline: the same under the baseline router.
func TestExecuteAllBenchmarksBaseline(t *testing.T) {
	for _, bench := range assay.EvaluationBenchmarks {
		r := newRunner(t, robustChipConfig(), sched.NewBaseline(), 3)
		exec, err := r.Execute(compile(t, bench, 16))
		if err != nil {
			t.Fatalf("%v: %v", bench, err)
		}
		if !exec.Success {
			t.Errorf("%v failed: %+v", bench, exec)
		}
	}
}

// TestCorrelationBenchmarksRun: the Fig. 3 protocols execute at all four
// droplet sizes.
func TestCorrelationBenchmarksRun(t *testing.T) {
	for _, bench := range assay.CorrelationBenchmarks {
		for _, side := range []int{3, 6} {
			r := newRunner(t, robustChipConfig(), sched.NewBaseline(), 4)
			exec, err := r.Execute(compile(t, bench, side*side))
			if err != nil {
				t.Fatalf("%v %d×%d: %v", bench, side, side, err)
			}
			if !exec.Success {
				t.Errorf("%v %d×%d failed: %+v", bench, side, side, exec)
			}
		}
	}
}

// TestWearAccumulatesAcrossExecutions: reusing the chip leaves it more worn.
func TestWearAccumulatesAcrossExecutions(t *testing.T) {
	r := newRunner(t, robustChipConfig(), sched.NewBaseline(), 5)
	plan := compile(t, assay.MasterMix, 16)
	if _, err := r.Execute(plan); err != nil {
		t.Fatal(err)
	}
	w1 := r.Chip.TotalActuations()
	if w1 == 0 {
		t.Fatal("execution caused no wear")
	}
	if _, err := r.Execute(plan); err != nil {
		t.Fatal(err)
	}
	if r.Chip.TotalActuations() <= w1 {
		t.Error("second execution caused no additional wear")
	}
}

// TestHookObservesActuations: the cycle hook sees every cycle and at least
// one pattern whenever droplets are on-chip.
func TestHookObservesActuations(t *testing.T) {
	r := newRunner(t, robustChipConfig(), sched.NewBaseline(), 6)
	cycles := 0
	patterns := 0
	r.Hook = func(k int, ps []geom.Rect) {
		cycles++
		patterns += len(ps)
	}
	exec, err := r.Execute(compile(t, assay.CovidRAT, 16))
	if err != nil {
		t.Fatal(err)
	}
	if cycles != exec.Cycles {
		t.Errorf("hook saw %d cycles, exec reports %d", cycles, exec.Cycles)
	}
	if patterns == 0 {
		t.Error("hook saw no actuation patterns")
	}
}

// TestAbortOnTinyBudget: an impossible budget aborts with Cycles = KMax.
func TestAbortOnTinyBudget(t *testing.T) {
	src := randx.New(7)
	c, err := chip.New(robustChipConfig(), src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.KMax = 5
	r := NewRunner(cfg, c, sched.NewBaseline(), src.Split("sim"))
	exec, err := r.Execute(compile(t, assay.SerialDilution, 16))
	if err != nil {
		t.Fatal(err)
	}
	if exec.Success {
		t.Error("serial dilution cannot finish in 5 cycles")
	}
	if exec.Cycles != 5 {
		t.Errorf("aborted cycles = %d, want 5", exec.Cycles)
	}
}

// TestAdaptiveSurvivesFastDegradation: on a rapidly wearing chip the
// adaptive router should finish a medium assay while re-synthesizing.
func TestAdaptiveSurvivesFastDegradation(t *testing.T) {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.5, Tau2: 0.9, C1: 200, C2: 500}
	r := newRunner(t, cfg, sched.NewAdaptive(), 8)
	exec, err := r.Execute(compile(t, assay.CovidPCR, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Success {
		t.Errorf("adaptive failed on degrading chip: %+v", exec)
	}
}

// TestChipMismatchRejected: plans must match the chip dimensions.
func TestChipMismatchRejected(t *testing.T) {
	r := newRunner(t, robustChipConfig(), sched.NewBaseline(), 9)
	a := assay.MasterMix.Build(assay.Layout{W: 40, H: 20}, 16)
	plan, err := route.Compile(a, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(plan); err == nil {
		t.Error("mismatched plan accepted")
	}
}

// TestDeterministicReplay: identical seeds reproduce identical executions.
func TestDeterministicReplay(t *testing.T) {
	run := func() Execution {
		r := newRunner(t, robustChipConfig(), sched.NewAdaptive(), 11)
		exec, err := r.Execute(compile(t, assay.CEP, 16))
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("executions differ: %+v vs %+v", a, b)
	}
}

// TestRunTrialFiveSuccesses: a robust chip yields five successes and no
// failure.
func TestRunTrialFiveSuccesses(t *testing.T) {
	cfg := DefaultTrialConfig(13)
	cfg.Chip = robustChipConfig()
	res, err := RunTrial(cfg, assay.MasterMix, func() sched.Router { return sched.NewBaseline() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes != 5 || res.FirstFailure != 0 {
		t.Errorf("trial = %+v, want 5 clean successes", res)
	}
	if len(res.Cycles) != 5 {
		t.Errorf("recorded %d executions, want 5", len(res.Cycles))
	}
}

// TestRunTrialBaselineWearsOut: with aggressive degradation and the
// baseline router, repeated serial dilutions should eventually fail (the
// baseline reuses the same cells every run).
func TestRunTrialBaselineWearsOut(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cfg := DefaultTrialConfig(17)
	cfg.Chip.Normal = degrade.ParamRange{Tau1: 0.3, Tau2: 0.5, C1: 50, C2: 120}
	res, err := RunTrial(cfg, assay.SerialDilution, func() sched.Router { return sched.NewBaseline() })
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstFailure == 0 {
		t.Errorf("baseline survived aggressive wear: %+v", res.Successes)
	}
}

// TestCollisionsPreventOverlap: droplets of different operations never
// overlap. Same-operation siblings are *meant* to meet (that is how a mix
// coalesces), so a small number of overlapping pattern pairs — bounded by
// the number of merge rendezvous — is expected; runaway overlap would signal
// a broken collision guard.
func TestCollisionsPreventOverlap(t *testing.T) {
	r := newRunner(t, robustChipConfig(), sched.NewBaseline(), 19)
	// InVitro runs four independent chains concurrently: the stress case.
	plan := compile(t, assay.InVitro, 16)
	overlaps := 0
	r.Hook = func(k int, ps []geom.Rect) {
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				if ps[i].Overlaps(ps[j]) {
					overlaps++
				}
			}
		}
	}
	exec, err := r.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Success {
		t.Fatalf("in-vitro failed: %+v", exec)
	}
	// Four mixes ⇒ at most a handful of rendezvous overlap cycles.
	if overlaps > 4*10 {
		t.Errorf("%d overlapping actuation pairs observed — collision guard broken", overlaps)
	}
}
