package sim

import (
	"errors"
	"fmt"
	"testing"

	"meda/internal/assay"
	"meda/internal/sched"
)

// runWithCheckpoints executes a benchmark with a checkpoint hook installed
// and returns the observed checkpoints alongside the execution.
func runWithCheckpoints(t *testing.T, every int, seed uint64, fn func(Checkpoint) error) (Execution, error, []Checkpoint) {
	t.Helper()
	r := newRunner(t, robustChipConfig(), sched.NewAdaptive(), seed)
	var seen []Checkpoint
	r.Cfg.Checkpoint = CheckpointConfig{Every: every, Fn: func(cp Checkpoint) error {
		seen = append(seen, cp)
		if fn != nil {
			return fn(cp)
		}
		return nil
	}}
	exec, err := r.Execute(compile(t, assay.SerialDilution, 16))
	return exec, err, seen
}

// The hook fires on the cadence, observes monotone cycles, and always sees
// the final cycle.
func TestCheckpointCadence(t *testing.T) {
	exec, err, seen := runWithCheckpoints(t, 16, 42, nil)
	if err != nil || !exec.Success {
		t.Fatalf("exec = %+v, err %v", exec, err)
	}
	if len(seen) == 0 {
		t.Fatal("no checkpoints observed")
	}
	last := -1
	for i, cp := range seen {
		if cp.Exec.Cycles <= last {
			t.Fatalf("checkpoint %d: cycle %d not after %d", i, cp.Exec.Cycles, last)
		}
		last = cp.Exec.Cycles
		if i < len(seen)-1 && cp.Exec.Cycles%16 != 0 {
			t.Fatalf("checkpoint %d at cycle %d, want multiples of 16", i, cp.Exec.Cycles)
		}
	}
	if final := seen[len(seen)-1]; final.Exec.Cycles != exec.Cycles {
		t.Fatalf("final checkpoint at cycle %d, execution ended at %d", final.Exec.Cycles, exec.Cycles)
	}
}

// Observation must not perturb: with and without a hook, and across hook
// cadences, the execution is identical — and checkpoint digests replay
// byte-identically for the same seed.
func TestCheckpointsDoNotPerturbExecution(t *testing.T) {
	r := newRunner(t, robustChipConfig(), sched.NewAdaptive(), 42)
	plain, err := r.Execute(compile(t, assay.SerialDilution, 16))
	if err != nil {
		t.Fatal(err)
	}
	digests := func(every int) ([]uint64, Execution) {
		exec, err, seen := runWithCheckpoints(t, every, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]uint64, len(seen))
		for i, cp := range seen {
			ds[i] = cp.Digest()
		}
		return ds, exec
	}
	d16a, exec16 := digests(16)
	d16b, _ := digests(16)
	_, exec4 := digests(4)
	if exec16 != plain || exec4 != plain {
		t.Fatalf("hook perturbed execution:\nplain %+v\n  e16 %+v\n   e4 %+v", plain, exec16, exec4)
	}
	if fmt.Sprint(d16a) != fmt.Sprint(d16b) {
		t.Fatalf("same seed, different digest sequences:\n%v\n%v", d16a, d16b)
	}
}

// A hook error aborts the execution, wrapped in CheckpointAbort with the
// cycle and the original cause intact.
func TestCheckpointAbort(t *testing.T) {
	cause := errors.New("controller going down")
	_, err, seen := runWithCheckpoints(t, 16, 42, func(cp Checkpoint) error {
		if cp.Exec.Cycles >= 32 {
			return cause
		}
		return nil
	})
	if err == nil {
		t.Fatal("hook error did not abort the execution")
	}
	var abort *CheckpointAbort
	if !errors.As(err, &abort) {
		t.Fatalf("err = %v, want CheckpointAbort", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cause not preserved through Unwrap: %v", err)
	}
	if abort.Cycle < 32 {
		t.Fatalf("abort at cycle %d, hook first errored at 32", abort.Cycle)
	}
	if last := seen[len(seen)-1]; last.Exec.Cycles != abort.Cycle {
		t.Fatalf("last checkpoint cycle %d != abort cycle %d", last.Exec.Cycles, abort.Cycle)
	}
}

// Digest distinguishes checkpoints that differ in any folded field.
func TestCheckpointDigestSensitivity(t *testing.T) {
	base := Checkpoint{Exec: Execution{Cycles: 10, JobsCompleted: 2}, HealthHash: 0xabcd, Droplets: 3}
	variants := []Checkpoint{
		{Exec: Execution{Cycles: 11, JobsCompleted: 2}, HealthHash: 0xabcd, Droplets: 3},
		{Exec: Execution{Cycles: 10, JobsCompleted: 3}, HealthHash: 0xabcd, Droplets: 3},
		{Exec: Execution{Cycles: 10, JobsCompleted: 2}, HealthHash: 0xabce, Droplets: 3},
		{Exec: Execution{Cycles: 10, JobsCompleted: 2}, HealthHash: 0xabcd, Droplets: 4},
	}
	d := base.Digest()
	if d != base.Digest() {
		t.Fatal("digest not stable")
	}
	for i, v := range variants {
		if v.Digest() == d {
			t.Errorf("variant %d collides with base", i)
		}
	}
}

// An execution that runs out its cycle budget observes its last cycle
// exactly once, even when the cadence divides the budget: cycles strictly
// increase and end at KMax.
func TestCheckpointAbortedRunObservesLastCycleOnce(t *testing.T) {
	for _, every := range []int{4, 8, 16} {
		r := newRunner(t, robustChipConfig(), sched.NewAdaptive(), 42)
		r.Cfg.KMax = 64
		var cycles []int
		r.Cfg.Checkpoint = CheckpointConfig{Every: every, Fn: func(cp Checkpoint) error {
			cycles = append(cycles, cp.Exec.Cycles)
			return nil
		}}
		exec, err := r.Execute(compile(t, assay.SerialDilution, 16))
		if err != nil {
			t.Fatal(err)
		}
		if exec.Success || exec.Cycles != 64 {
			t.Fatalf("every %d: want an aborted 64-cycle run, got %+v", every, exec)
		}
		if len(cycles) != 64/every {
			t.Errorf("every %d: %d checkpoints %v, want %d", every, len(cycles), cycles, 64/every)
		}
		for i := 1; i < len(cycles); i++ {
			if cycles[i] <= cycles[i-1] {
				t.Fatalf("every %d: cycle %d observed after %d: %v", every, cycles[i], cycles[i-1], cycles)
			}
		}
		if last := cycles[len(cycles)-1]; last != 64 {
			t.Errorf("every %d: last checkpoint at cycle %d, want 64", every, last)
		}
	}
}

// TestCheckpointDigestPinned: resume verification compares digests across
// processes, so Digest must be a fixed function of the fields. Every field
// here is distinct and nonzero, so a change in the order fields are folded
// (a map range, say) shows too; the pinned value catches anything that
// varies between runs (a clock read, a per-process seed).
func TestCheckpointDigestPinned(t *testing.T) {
	cp := Checkpoint{
		Exec: Execution{
			Cycles: 1000, JobsCompleted: 7, Stalls: 5, Resyntheses: 3,
			Divergences: 2, HazardViolations: 11, Deadlocks: 13,
		},
		HealthHash: 0xfeedbeef, Droplets: 4,
	}
	const want = 0xad178a77c9e01293
	for i := 0; i < 64; i++ {
		if got := cp.Digest(); got != want {
			t.Fatalf("call %d: Digest() = %#x, want %#x", i, got, uint64(want))
		}
	}
}
