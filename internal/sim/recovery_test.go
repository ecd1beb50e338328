package sim

import (
	"testing"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/randx"
	"meda/internal/sched"
)

// deadWallChip builds a chip whose column band x ∈ [25, 28] dies almost
// immediately: any route crossing the middle of the chip stalls, forcing
// error recovery (or, for the adaptive router, a detour).
func deadWallChip(t *testing.T, seed uint64) *chip.Chip {
	t.Helper()
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	c, err := chip.New(cfg, randx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRecoveryDisabledByDefault: the default configuration matches the
// paper's evaluation (no reactive recovery).
func TestRecoveryDisabledByDefault(t *testing.T) {
	if DefaultConfig().Recovery {
		t.Error("recovery must be off by default")
	}
}

// TestRecoveryCountsStayZeroWhenHealthy: recovery enabled on a healthy chip
// must never trigger.
func TestRecoveryCountsStayZeroWhenHealthy(t *testing.T) {
	c := deadWallChip(t, 1)
	cfg := DefaultConfig()
	cfg.Recovery = true
	src := randx.New(2)
	r := NewRunner(cfg, c, sched.NewBaseline(), src)
	exec, err := r.Execute(compile(t, assay.MasterMix, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Success {
		t.Fatalf("healthy execution failed: %+v", exec)
	}
	if exec.Rollbacks != 0 || exec.RedoneOps != 0 {
		t.Errorf("spurious recovery: %+v", exec)
	}
}

// TestRecoveryRetriesStalledOperation: with hard faults forming a roadblock,
// the baseline router stalls; roll-back recovery discards and re-executes
// the affected operations, visible through the Rollbacks/RedoneOps counters.
func TestRecoveryRetriesStalledOperation(t *testing.T) {
	// Clustered faults failing immediately create dead roadblocks for the
	// health-blind baseline.
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	cfg.Faults = degrade.FaultPlan{
		Mode: degrade.FaultClustered, Fraction: 0.3, FailAfterLo: 1, FailAfterHi: 2,
	}
	simCfg := DefaultConfig()
	simCfg.Recovery = true
	simCfg.KMax = 600

	triggered := false
	for seed := uint64(0); seed < 8 && !triggered; seed++ {
		src := randx.New(seed)
		c, err := chip.New(cfg, src.Split("chip"))
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(simCfg, c, sched.NewBaseline(), src.Split("sim"))
		exec, err := r.Execute(compile(t, assay.MasterMix, 16))
		if err != nil {
			t.Fatal(err)
		}
		if exec.Rollbacks > 0 {
			triggered = true
			if exec.RedoneOps == 0 {
				t.Error("rollback without redone operations")
			}
		}
	}
	if !triggered {
		t.Error("no rollback triggered across 8 fault-heavy chips")
	}
}

// TestRecoveryRollbackCapRespected: on a chip where nothing can route,
// recovery rolls back exactly maxRollbacks times and then stops.
func TestRecoveryRollbackCapRespected(t *testing.T) {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	// Saturate the chip with early hard faults: nothing can route.
	cfg.Faults = degrade.FaultPlan{
		Mode: degrade.FaultUniform, Fraction: 0.6, FailAfterLo: 1, FailAfterHi: 2,
	}
	simCfg := DefaultConfig()
	simCfg.Recovery = true
	simCfg.KMax = 800
	src := randx.New(5)
	c, err := chip.New(cfg, src.Split("chip"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(simCfg, c, sched.NewBaseline(), src.Split("sim"))
	exec, err := r.Execute(compile(t, assay.SerialDilution, 16))
	if err != nil {
		t.Fatal(err)
	}
	if exec.Rollbacks != maxRollbacks {
		t.Errorf("rollbacks = %d, want the cap %d", exec.Rollbacks, maxRollbacks)
	}
}

// TestRecoveryExecutionStillCompletes: after a rollback, the re-executed
// operations can still finish the bioassay when a viable route exists.
func TestRecoveryExecutionStillCompletes(t *testing.T) {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	cfg.Faults = degrade.FaultPlan{
		Mode: degrade.FaultClustered, Fraction: 0.15, FailAfterLo: 1, FailAfterHi: 30,
	}
	simCfg := DefaultConfig()
	simCfg.Recovery = true
	completed := 0
	for seed := uint64(10); seed < 16; seed++ {
		src := randx.New(seed)
		c, err := chip.New(cfg, src.Split("chip"))
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(simCfg, c, sched.NewBaseline(), src.Split("sim"))
		exec, err := r.Execute(compile(t, assay.CovidRAT, 16))
		if err != nil {
			t.Fatal(err)
		}
		if exec.Success {
			completed++
		}
	}
	if completed == 0 {
		t.Error("recovery never salvaged an execution")
	}
}
