package sim

import (
	"testing"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
)

// runDiffPair executes the same plan twice from the same seed — once with the
// sequential oracle (one hazard zone at a time) and once with the concurrent
// executor — with hazard auditing on, and returns both outcomes.
func runDiffPair(t *testing.T, plan *route.Plan, router func() sched.Router, seed uint64, kmax int) (seq, con Execution) {
	t.Helper()
	run := func(concurrent bool) Execution {
		src := randx.New(seed)
		c, err := chip.New(robustChipConfig(), src.Split("chip"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.KMax = kmax
		cfg.CheckHazards = true
		cfg.Concurrent = concurrent
		r := NewRunner(cfg, c, router(), src.Split("sim"))
		exec, err := r.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		return exec
	}
	return run(false), run(true)
}

// checkDiff asserts the differential properties the concurrent executor must
// preserve against the sequential oracle. The concurrent run must always
// complete hazard-free. When the oracle completes too, the concurrent run
// must complete at least the oracle's jobs (exactly, unless deadlock
// recovery legitimately re-ran some) in no more cycles. Reports whether the
// oracle itself completed — it can wedge on adversarial mixtures (its forced
// activation has no head-on recovery), in which case the concurrent run
// rescuing the workload is the stronger result.
func checkDiff(t *testing.T, name string, seq, con Execution) bool {
	t.Helper()
	if !con.Success {
		t.Fatalf("%s: concurrent executor failed: %+v", name, con)
	}
	if con.HazardViolations != 0 {
		t.Errorf("%s: concurrent executor violated %d hazards", name, con.HazardViolations)
	}
	if seq.HazardViolations != 0 {
		t.Errorf("%s: sequential oracle violated %d hazards", name, seq.HazardViolations)
	}
	if !seq.Success {
		return false
	}
	if con.JobsCompleted < seq.JobsCompleted {
		t.Errorf("%s: concurrent completed %d jobs, sequential %d",
			name, con.JobsCompleted, seq.JobsCompleted)
	}
	if con.RedoneOps == 0 && con.JobsCompleted != seq.JobsCompleted {
		t.Errorf("%s: concurrent completed %d jobs without redone work, sequential %d",
			name, con.JobsCompleted, seq.JobsCompleted)
	}
	if con.Cycles > seq.Cycles {
		t.Errorf("%s: concurrent took %d cycles, sequential %d — concurrency made it slower",
			name, con.Cycles, seq.Cycles)
	}
	return true
}

// TestConcurrentDiffBenchmarks runs every evaluation benchmark through both
// executors and checks the differential properties.
func TestConcurrentDiffBenchmarks(t *testing.T) {
	for _, bench := range assay.EvaluationBenchmarks {
		seq, con := runDiffPair(t, compile(t, bench, 16), func() sched.Router { return sched.NewAdaptive() }, 23, 2000)
		checkDiff(t, bench.String(), seq, con)
		t.Logf("%-16s sequential %4d cycles, concurrent %4d cycles (peak %d droplets, %d deadlocks)",
			bench, seq.Cycles, con.Cycles, con.PeakDroplets, con.Deadlocks)
	}
}

// TestConcurrentDiffRandomAssays runs 50 seeded random Mixture workloads —
// contention-heavy concatenations of 2–3 paper protocols on shifted layouts —
// through both executors. Every one must stay hazard-free and at least as
// fast as the serialized oracle.
func TestConcurrentDiffRandomAssays(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	speedups, rescued := 0, 0
	for seed := uint64(1); seed <= 50; seed++ {
		a := assay.Mixture(seed, assay.Layout{W: 60, H: 30}, 16, 2+int(seed%2))
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		plan, err := route.Compile(a, 60, 30)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		seq, con := runDiffPair(t, plan, func() sched.Router { return sched.NewBaseline() }, seed, 8000)
		if !checkDiff(t, a.Name, seq, con) {
			rescued++
			t.Logf("%s: sequential oracle wedged (%d jobs in %d cycles); concurrent completed in %d",
				a.Name, seq.JobsCompleted, seq.Cycles, con.Cycles)
			continue
		}
		if con.Cycles < seq.Cycles {
			speedups++
		}
	}
	// Concatenated independent protocols are exactly the workloads
	// concurrency should help: most mixtures must finish strictly faster,
	// and the oracle wedging must stay the rare exception.
	if speedups < 25 {
		t.Errorf("concurrent executor was strictly faster on only %d/50 mixtures", speedups)
	}
	if rescued > 5 {
		t.Errorf("sequential oracle wedged on %d/50 mixtures — workload generator too adversarial", rescued)
	}
}
