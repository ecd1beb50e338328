package sim

import (
	"bytes"
	"fmt"
	"testing"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/fault"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/sched"
	"meda/internal/telemetry"
)

// faultTrace is simTrace under fault injection: a fresh chip, the full
// graceful-degradation router ladder, and a mixed fault plan derived from
// the seed. Returns the byte-exact cycle transcript.
func faultTrace(t *testing.T, bench assay.Benchmark, seed uint64, rate float64) []byte {
	t.Helper()
	src := randx.New(seed)
	c, err := chip.New(robustChipConfig(), src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	router := sched.NewFallback(sched.NewAdaptive(), sched.NewBaseline())
	cfg := DefaultConfig().WithFaults(fault.Mixed(seed, rate, fault.AllKinds))
	r := NewRunner(cfg, c, router, src.Split("sim"))
	var buf bytes.Buffer
	r.Hook = func(k int, ps []geom.Rect) {
		fmt.Fprintf(&buf, "%d:", k)
		for _, p := range ps {
			fmt.Fprintf(&buf, " %v", p)
		}
		buf.WriteByte('\n')
	}
	exec, err := r.Execute(compile(t, bench, 16))
	if err != nil {
		t.Fatalf("%v: %v", bench, err)
	}
	fmt.Fprintf(&buf, "cycles=%d stalls=%d resyn=%d jobs=%d div=%d deg=%d haz=%d ok=%v\n",
		exec.Cycles, exec.Stalls, exec.Resyntheses, exec.JobsCompleted,
		exec.Divergences, exec.DegradedJobs, exec.HazardViolations, exec.Success)
	return buf.Bytes()
}

// TestFaultTraceDeterminism: the same fault seed and assay produce
// byte-identical traces across two runs — the acceptance criterion for the
// fault subsystem's stateless-hash design. A shared mutable RNG anywhere in
// the injection path (whose consumption order depends on goroutine timing
// or map iteration) breaks this immediately.
func TestFaultTraceDeterminism(t *testing.T) {
	for _, bench := range []assay.Benchmark{assay.MasterMix, assay.SerialDilution} {
		first := faultTrace(t, bench, 2021, 0.05)
		second := faultTrace(t, bench, 2021, 0.05)
		if !bytes.Equal(first, second) {
			t.Errorf("%v: same fault seed produced different traces (%d vs %d bytes)",
				bench, len(first), len(second))
		}
	}
}

// TestFaultTraceDiffersBySeed: different fault seeds must actually change
// the execution — otherwise the injection layer is dead code.
func TestFaultTraceDiffersBySeed(t *testing.T) {
	a := faultTrace(t, assay.SerialDilution, 2021, 0.2)
	b := faultTrace(t, assay.SerialDilution, 7777, 0.2)
	if bytes.Equal(a, b) {
		t.Error("different fault seeds produced identical traces at a 20% rate")
	}
}

// TestFaultTrialAcceptance runs the six-assay evaluation suite under a 5%
// mixed fault rate: every assay must complete hazard-free with bounded
// completion-time inflation, and the run must record at least one fallback
// event in telemetry (otherwise the injected control-plane faults never
// exercised the degradation ladder and the trial proved nothing).
func TestFaultTrialAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("six-assay sweep in -short mode")
	}
	before := telemetry.Default().Snapshot().Counters
	cfg := DefaultFaultTrialConfig()
	cfg.Trials = 1
	results, err := RunFaultTrials(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(assay.EvaluationBenchmarks) {
		t.Fatalf("got %d results, want %d", len(results), len(assay.EvaluationBenchmarks))
	}
	for _, res := range results {
		if res.Violation != "" {
			t.Errorf("%v trial %d: %s (plan %+v)", res.Benchmark, res.Trial, res.Violation, res.Plan)
		}
	}
	after := telemetry.Default().Snapshot().Counters
	fallbacks := int64(0)
	for _, name := range []string{
		"sched.fallback.retries", "sched.fallback.recovered",
		"sched.fallback.final", "sched.fallback.degraded",
	} {
		fallbacks += after[name] - before[name]
	}
	if fallbacks == 0 {
		t.Error("six-assay sweep recorded no fallback events in telemetry")
	}
}

// TestFaultTrialAcceptanceConcurrent runs the same sweep on the concurrent
// executor: injected faults (all three kinds) must not let concurrently
// routed droplets violate the fluidic constraints, every assay must still
// complete, and fault-induced inflation stays within the same bound — now
// measured against a concurrent clean run, so the parallelism cannot mask
// slowdowns.
func TestFaultTrialAcceptanceConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("six-assay sweep in -short mode")
	}
	cfg := DefaultFaultTrialConfig()
	cfg.Trials = 1
	cfg.Concurrent = true
	results, err := RunFaultTrials(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(assay.EvaluationBenchmarks) {
		t.Fatalf("got %d results, want %d", len(results), len(assay.EvaluationBenchmarks))
	}
	for _, res := range results {
		if res.Violation != "" {
			t.Errorf("%v trial %d: %s (plan %+v)", res.Benchmark, res.Trial, res.Violation, res.Plan)
		}
		if res.Faulted.HazardViolations != 0 {
			t.Errorf("%v trial %d: %d hazard violations under concurrent faulted execution",
				res.Benchmark, res.Trial, res.Faulted.HazardViolations)
		}
	}
}

// TestFaultTrialViolationDetection: an absurd inflation bound must be
// reported as a violation — the trial harness's alarm actually fires.
func TestFaultTrialViolationDetection(t *testing.T) {
	cfg := DefaultFaultTrialConfig()
	cfg.Trials = 1
	cfg.Benchmarks = []assay.Benchmark{assay.MasterMix}
	cfg.Inflation = 0.001
	cfg.Slack = 1
	results, err := RunFaultTrials(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Violations(results) != 1 {
		t.Errorf("inflation bound of ~1 cycle not flagged: %+v", results)
	}
}

// TestWithFaultsDefaults: WithFaults attaches the plan and turns hazard
// auditing on; a disabled plan arms nothing else, so the run is the
// fault-free one.
func TestWithFaultsDefaults(t *testing.T) {
	cfg := DefaultConfig().WithFaults(fault.Mixed(1, 0.05, fault.AllKinds))
	if !cfg.Faults.Enabled() || !cfg.CheckHazards {
		t.Errorf("plan not attached or auditing off: %+v", cfg)
	}

	// A clustered dead band the health-blind baseline stalls against: with
	// deadlines and divergence tracking armed, its jobs would be degraded.
	cc := robustChipConfig()
	cc.Faults = degrade.FaultPlan{
		Mode: degrade.FaultClustered, Fraction: 0.3, FailAfterLo: 1, FailAfterHi: 2,
	}
	execute := func(cfg Config) Execution {
		t.Helper()
		src := randx.New(4)
		c, err := chip.New(cc, src.Split("chip"))
		if err != nil {
			t.Fatal(err)
		}
		exec, err := NewRunner(cfg, c, sched.NewBaseline(), src.Split("sim")).Execute(compile(t, assay.MasterMix, 16))
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}
	disabled := DefaultConfig().WithFaults(fault.Mixed(4, 0.05, 0))
	if disabled.Faults.Enabled() {
		t.Fatal("a plan with no fault kinds must be disabled")
	}
	audited := DefaultConfig()
	audited.CheckHazards = true
	got, want := execute(disabled), execute(audited)
	if got != want {
		t.Errorf("disabled plan changed the run:\n got %+v\nwant %+v", got, want)
	}
	if got.Divergences != 0 || got.DegradedJobs != 0 {
		t.Errorf("degradation armed without faults: %+v", got)
	}
}

// TestAuditHazards exercises the post-motion audit directly.
func TestAuditHazards(t *testing.T) {
	r := newRunner(t, robustChipConfig(), sched.NewBaseline(), 1)
	r.Cfg.CheckHazards = true
	ok := []*dropletRT{
		{rect: geom.Rect{XA: 1, YA: 1, XB: 4, YB: 4}, mo: 0},
		{rect: geom.Rect{XA: 10, YA: 10, XB: 13, YB: 13}, mo: 1},
	}
	if v := r.auditHazards(ok); v != 0 {
		t.Errorf("clean state audited %d violations", v)
	}
	overlap := []*dropletRT{
		{rect: geom.Rect{XA: 1, YA: 1, XB: 4, YB: 4}, mo: 0},
		{rect: geom.Rect{XA: 3, YA: 3, XB: 6, YB: 6}, mo: 1},
	}
	if v := r.auditHazards(overlap); v != 1 {
		t.Errorf("cross-operation overlap audited %d violations, want 1", v)
	}
	sameMO := []*dropletRT{
		{rect: geom.Rect{XA: 1, YA: 1, XB: 4, YB: 4}, mo: 2},
		{rect: geom.Rect{XA: 3, YA: 3, XB: 6, YB: 6}, mo: 2},
	}
	if v := r.auditHazards(sameMO); v != 0 {
		t.Errorf("same-operation rendezvous audited %d violations, want 0", v)
	}
	offChip := []*dropletRT{
		{rect: geom.Rect{XA: 58, YA: 28, XB: 62, YB: 32}, mo: 0},
	}
	if v := r.auditHazards(offChip); v != 1 {
		t.Errorf("off-array droplet audited %d violations, want 1", v)
	}
}

// TestDegradedJobRoutesViaFinalTier: a job marked degraded fetches its
// strategy from the fallback ladder's final tier.
func TestDegradedJobRoutesViaFinalTier(t *testing.T) {
	fb := sched.NewFallback(sched.NewAdaptive(), sched.NewBaseline())
	r := newRunner(t, robustChipConfig(), fb, 5)
	plan := compile(t, assay.MasterMix, 16)
	rj := plan.MOs[0].Jobs[0]
	j := &jobRT{rj: rj, mo: 0, degraded: true, routable: true}
	(&run{Runner: r, k: 1}).fetch(j)
	if !j.routable || j.policy.Len() == 0 {
		t.Fatalf("degraded fetch produced no policy: routable=%v", j.routable)
	}
	if got := fb.Stats().DegradedRoutes; got != 1 {
		t.Errorf("DegradedRoutes = %d, want 1", got)
	}
}
