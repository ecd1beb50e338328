// Execution checkpoints: a periodic observation hook the fleet service
// (internal/serve) uses to journal in-flight assay progress, publish
// telemetry events, and abort executions cooperatively (cancellation and
// crash simulation). The hook is deliberately an observer of the running
// execution, not a serializer of it: resumption is deterministic replay —
// an execution is fully determined by the chip state at its start, the
// compiled plan, the configuration, and the RNG seed, so a restarted
// controller re-executes from the journaled start state and passes through
// byte-identical checkpoints (which the resume path can verify against the
// journal).
package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// Checkpoint is a point-in-time observation of a running execution.
type Checkpoint struct {
	// Exec is a copy of the execution counters so far; Exec.Cycles is the
	// current cycle.
	Exec Execution
	// HealthHash fingerprints the observed health matrix over the whole
	// array at this cycle. Two executions that agree on every checkpoint's
	// (Exec, HealthHash) pair have actuated the chip identically.
	HealthHash uint64
	// Droplets is the number of droplets on the array at this cycle.
	Droplets int
}

// Digest folds the checkpoint into 64 bits for compact journaling: resume
// verification compares digests, not whole structs.
//
//meda:deterministic
func (cp Checkpoint) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(cp.Exec.Cycles))
	word(uint64(cp.Exec.JobsCompleted))
	word(uint64(cp.Exec.Stalls))
	word(uint64(cp.Exec.Resyntheses))
	word(uint64(cp.Exec.Divergences))
	word(uint64(cp.Exec.HazardViolations))
	word(uint64(cp.Exec.Deadlocks))
	word(uint64(cp.Droplets))
	word(cp.HealthHash)
	return h.Sum64()
}

// CheckpointConfig attaches a checkpoint hook to a Runner. Every Every
// cycles (and on the execution's final cycle) Fn observes the execution; a
// non-nil return aborts the execution, which surfaces the error from
// Execute wrapped in a CheckpointAbort.
type CheckpointConfig struct {
	Every int
	Fn    func(Checkpoint) error
}

// CheckpointAbort is the error Execute returns when a checkpoint hook
// aborted the execution; Cause is the hook's error.
type CheckpointAbort struct {
	Cycle int
	Cause error
}

func (e *CheckpointAbort) Error() string {
	return fmt.Sprintf("sim: execution aborted by checkpoint hook at cycle %d: %v", e.Cycle, e.Cause)
}

// Unwrap exposes the hook's error to errors.Is/As.
func (e *CheckpointAbort) Unwrap() error { return e.Cause }

// checkpoint invokes the configured hook for cycle k, if due.
func (s *run) checkpoint(k int, final bool) error {
	cfg := s.Cfg.Checkpoint
	if cfg.Fn == nil {
		return nil
	}
	every := cfg.Every
	if every <= 0 {
		every = 1
	}
	if !final && k%every != 0 {
		return nil
	}
	cp := Checkpoint{Exec: s.exec, HealthHash: s.Chip.HealthHash(s.Chip.Bounds()), Droplets: len(s.droplets)}
	if err := cfg.Fn(cp); err != nil {
		return &CheckpointAbort{Cycle: k, Cause: err}
	}
	return nil
}
