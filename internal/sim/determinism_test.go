package sim

import (
	"bytes"
	"fmt"
	"testing"

	"meda/internal/assay"
	"meda/internal/geom"
	"meda/internal/sched"
	"meda/internal/telemetry"
)

// simTrace runs one benchmark execution from a fresh chip and returns a
// byte-exact transcript: every cycle's actuation patterns (in hook order,
// which the runner fixes) plus the execution summary. All randomness flows
// through randx from the given seed, so two calls with the same arguments
// must return identical bytes.
func simTrace(t *testing.T, bench assay.Benchmark, seed uint64) []byte {
	return simTraceMode(t, bench, seed, false)
}

// simTraceMode is simTrace with the executor mode selectable: concurrent
// executions must be exactly as replayable as sequential ones — activation
// order, spawn arbitration, deadlock detection and victim selection are all
// deterministic in the seed.
func simTraceMode(t *testing.T, bench assay.Benchmark, seed uint64, concurrent bool) []byte {
	t.Helper()
	r := newRunner(t, robustChipConfig(), sched.NewAdaptive(), seed)
	r.Cfg.Concurrent = concurrent
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
	fmt.Fprintf(&buf, "cycles=%d stalls=%d resyn=%d jobs=%d ok=%v\n",
		exec.Cycles, exec.Stalls, exec.Resyntheses, exec.JobsCompleted, exec.Success)
	return buf.Bytes()
}

// TestDeterministicTraces: the same seed yields byte-identical simulation
// traces across all six evaluation benchmarks. This is the regression guard
// for any code that accidentally consumes nature randomness (randx) on a
// path whose iteration order or call count is not itself deterministic —
// including the telemetry hooks, which must observe without perturbing.
func TestDeterministicTraces(t *testing.T) {
	for _, bench := range assay.EvaluationBenchmarks {
		first := simTrace(t, bench, 42)
		second := simTrace(t, bench, 42)
		if !bytes.Equal(first, second) {
			t.Errorf("%v: same seed produced different traces (%d vs %d bytes)",
				bench, len(first), len(second))
		}
	}
}

// TestTracingDoesNotPerturbSimulation: running with the span tracer
// installed produces the same simulation trace as running without it.
// Telemetry draws only on atomics and wall-clock time, never randx; a
// divergence here means instrumentation leaked into the model.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	plain := simTrace(t, assay.SerialDilution, 42)

	var spans bytes.Buffer
	tr := telemetry.NewTracer(&spans)
	telemetry.SetTracer(tr)
	defer telemetry.SetTracer(nil)
	traced := simTrace(t, assay.SerialDilution, 42)

	if !bytes.Equal(plain, traced) {
		t.Errorf("tracer changed the simulation trace (%d vs %d bytes)",
			len(plain), len(traced))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if spans.Len() == 0 {
		t.Error("tracer captured no spans during an instrumented execution")
	}
}

// TestDeterministicTracesConcurrent: the concurrent executor is as
// replayable as the sequential one — same seed, byte-identical traces across
// all six evaluation benchmarks.
func TestDeterministicTracesConcurrent(t *testing.T) {
	for _, bench := range assay.EvaluationBenchmarks {
		first := simTraceMode(t, bench, 42, true)
		second := simTraceMode(t, bench, 42, true)
		if !bytes.Equal(first, second) {
			t.Errorf("%v: same seed produced different concurrent traces (%d vs %d bytes)",
				bench, len(first), len(second))
		}
	}
}

// TestTracingDoesNotPerturbConcurrentSimulation: the span tracer must not
// perturb the concurrent executor either — its extra code paths (activation
// arbitration, deadlock recovery) observe telemetry but never consume it.
func TestTracingDoesNotPerturbConcurrentSimulation(t *testing.T) {
	plain := simTraceMode(t, assay.SerialDilution, 42, true)

	var spans bytes.Buffer
	tr := telemetry.NewTracer(&spans)
	telemetry.SetTracer(tr)
	defer telemetry.SetTracer(nil)
	traced := simTraceMode(t, assay.SerialDilution, 42, true)

	if !bytes.Equal(plain, traced) {
		t.Errorf("tracer changed the concurrent simulation trace (%d vs %d bytes)",
			len(plain), len(traced))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}
