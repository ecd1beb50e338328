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
	r := newRunner(t, robustChipConfig(), sched.NewAdaptive(sched.DefaultCacheSize), seed)
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
	r := newRunner(t, robustChipConfig(), sched.NewAdaptive(sched.DefaultCacheSize), 42)
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
