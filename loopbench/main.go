// Command loopbench is the repository's benchmark of the paper's adaptive
// routing loop (sense → re-synthesize → actuate) on three closed-loop
// workloads: wear (chip reuse under degradation), crowd (many droplets in
// flight under the concurrent executor) and fleet (the multi-tenant service
// over loopback). See README.md for the workloads, the metrics and how to
// read a traced run.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash loopbench/run.sh --workload wear --seed 1 --seconds 10 --trace 0
//
// Each invocation runs one workload in a fresh child process (two with
// --trace 1: an untraced one and a traced one), prints a report of every
// metric with its unit, and ends with one JSON line: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"meda/internal/sim"
)

// setupTimes is one set-up's cost breakdown, in seconds: its process CPU
// time and its wall time in total, and the wall time of its parts.
type setupTimes struct {
	cpu      float64 // process user+system CPU time (getrusage)
	total    float64 // wall time
	compile  float64 // route.Compile (wear, crowd)
	presynth float64 // sched.Library.Presynthesize (wear, crowd)
	server   float64 // serve.NewServer + listener (fleet)
	register float64 // tenant and chip creation through pkg/client (fleet)
}

// passResult is what one load pass observed.
type passResult struct {
	attempted, succeeded int
	cycles               int64
	digest               string
	jobCycles            []float64 // every execution's simulated cycles
	jobCPUPerCycle       []float64 // every execution's CPU µs per cycle (direct workloads)
	// sim.Execution counts, summed over the pass's jobs.
	stalls, resyntheses, deadlocks, serialized, deferrals int
	// obstructed counts Route calls that carried obstacles (traced only).
	obstructed int
	// fleet: client-observed latencies (ms) and event bookkeeping.
	jobMs, submitMs, queueMs, runMs, statusMs []float64
	events, dropped                           int
}

func (r *passResult) addExec(e sim.Execution) {
	r.attempted++
	if e.Success {
		r.succeeded++
	}
	r.cycles += int64(e.Cycles)
	r.jobCycles = append(r.jobCycles, float64(e.Cycles))
	r.stalls += e.Stalls
	r.resyntheses += e.Resyntheses
	r.deadlocks += e.Deadlocks
	r.serialized += e.SerializedOps
	r.deferrals += e.DispenseDeferrals
}

func (r *passResult) merge(o passResult) {
	r.attempted += o.attempted
	r.succeeded += o.succeeded
	r.cycles += o.cycles
	r.stalls += o.stalls
	r.resyntheses += o.resyntheses
	r.deadlocks += o.deadlocks
	r.serialized += o.serialized
	r.deferrals += o.deferrals
	r.obstructed += o.obstructed
	r.jobCycles = append(r.jobCycles, o.jobCycles...)
	r.jobCPUPerCycle = append(r.jobCPUPerCycle, o.jobCPUPerCycle...)
	r.jobMs = append(r.jobMs, o.jobMs...)
	r.submitMs = append(r.submitMs, o.submitMs...)
	r.queueMs = append(r.queueMs, o.queueMs...)
	r.runMs = append(r.runMs, o.runMs...)
	r.statusMs = append(r.statusMs, o.statusMs...)
	r.events += o.events
	r.dropped += o.dropped
}

// instance is one set-up workload, ready for a load pass.
type instance interface {
	load(tr *tracer, root int) (passResult, error)
	close() error
}

// workload describes one benchmark workload.
type workload struct {
	// setupReps is how many times a one-pass run sets the workload up;
	// setup_s is the median. Half of the set-ups come before the load (the
	// last of them is loaded) and half after it, so the median samples the
	// machine at both ends of the run.
	setupReps int
	setup     func(seed uint64, tr *tracer, workdir string) (instance, setupTimes, error)
	// cpuPerJob reports cpu_us_per_cycle as the median over jobs of each
	// job's own CPU per cycle instead of the load's total ratio.
	cpuPerJob bool
	// layerOf maps span names to the layers of the traced-run ledger;
	// priority lists those layers deepest first.
	layerOf  map[string]string
	priority []string
}

var directLayers = map[string]string{spanExecute: "sim", spanRoute: "sched"}

var workloads = map[string]workload{
	"wear": {
		setupReps: 9,
		setup: func(seed uint64, tr *tracer, _ string) (instance, setupTimes, error) {
			return setupWear(seed, tr)
		},
		layerOf: directLayers, priority: []string{"sched", "sim"},
	},
	"crowd": {
		setupReps: 5,
		setup: func(seed uint64, tr *tracer, _ string) (instance, setupTimes, error) {
			return setupCrowd(seed, tr)
		},
		// Two mixtures of the panel stall for thousands of cycles on some
		// seeds and not on others, and the total ratio follows them (its
		// spread over ten seeds was 0.19); a median over the 48 jobs moves
		// by at most a rank.
		cpuPerJob: true,
		layerOf:   directLayers, priority: []string{"sched", "sim"},
	},
	"fleet": {
		setupReps: 21,
		setup:     setupFleet,
		layerOf: map[string]string{
			spanSubmit: "serve.client", spanStatus: "serve.client",
			spanEvent: "serve.event", spanJob: "serve.wait",
		},
		priority: []string{"serve.client", "serve.event", "serve.wait"},
	},
}

// deadline bounds a whole invocation, children included.
const deadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: wear, crowd or fleet")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "load-phase seconds to measure (at least one full pass)")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build/loopbench", "directory for spans and fleet data")
		child   = flag.Bool("child", false, "run the workload in this process and print its raw report (internal)")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: loopbench --workload wear|crowd|fleet --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	if *child {
		rep := runChild(*name, *seed, *seconds, *trace == 1, *workdir)
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(runParent(*name, *seed, *seconds, *trace == 1, *workdir))
}

// childReport is what a child process hands its parent.
type childReport struct {
	Digest     string            `json:"digest"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Passes     int               `json:"passes"`
	E2E        []metric          `json:"e2e"`
	Layer      []metric          `json:"layer"`
	Info       []metric          `json:"info"`
	Env        map[string]string `json:"env"`
}

func (r *childReport) value(name string) float64 {
	for _, m := range r.E2E {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// runParent runs the workload in fresh child processes, checks their
// agreement, prints the report, and prints the result line. It returns the
// exit code: 0 when every check passed.
func runParent(name string, seed uint64, seconds int, traced bool, workdir string) int {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	plain, err := spawn(ctx, name, seed, seconds, false, workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopbench:", err)
		return 1
	}
	rep := plain
	var violations []string
	violations = append(violations, plain.Violations...)
	if traced {
		rep, err = spawn(ctx, name, seed, seconds, true, workdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loopbench:", err)
			return 1
		}
		violations = append(violations, rep.Violations...)
		if rep.Digest != plain.Digest {
			violations = append(violations, fmt.Sprintf("sim_digest differs: untraced %s, traced %s", plain.Digest, rep.Digest))
		}
		rep.Layer = append(rep.Layer, metric{"trace.overhead",
			ratio(rep.value("cpu_us_per_cycle"), plain.value("cpu_us_per_cycle")) - 1, "ratio"})
	}
	printReport(os.Stdout, name, seed, traced, plain, rep, violations)
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: len(violations) == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]json.RawMessage{}}
	list := plain.E2E
	if traced {
		list = rep.Layer
	}
	for _, m := range list {
		raw, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit})
		out.Metrics[m.Name] = raw
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// spawn runs one child process and decodes its report.
func spawn(ctx context.Context, name string, seed uint64, seconds int, traced bool, workdir string) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", tr, "-workdir", workdir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child (trace=%s): %w", name, tr, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s child (trace=%s): decoding report: %w", name, tr, err)
	}
	return &rep, nil
}

// runChild sets up and loads the workload in this process until seconds of
// load have been measured (at least one pass), then derives every metric.
// Each pass repeats the same seed-determined inputs on freshly set-up state,
// so every pass must reproduce the first pass's digest.
func runChild(name string, seed uint64, seconds int, traced bool, workdir string) *childReport {
	w := workloads[name]
	rep := &childReport{Env: map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"numcpu":     fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
	}}
	fail := func(err error) *childReport {
		rep.Violations = append(rep.Violations, err.Error())
		return rep
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return fail(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var (
		setups     []setupTimes
		total      passResult
		first      passResult
		roots      []int
		wall, cpu  time.Duration
		alloc      uint64
		gcs        uint32
		gcPause    uint64
		steal      int64
		tel        telemetrySample
		stealKnown = true
	)
	// Passes run while the next one is expected to end within the budget;
	// the first always runs.
	budget := time.Duration(seconds) * time.Second
	// setUp sets the workload up once, after a GC, and records its cost.
	setUp := func() (instance, error) {
		runtime.GC()
		cpu0 := processCPU()
		inst, st, err := w.setup(seed, tr, workdir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		st.cpu = (processCPU() - cpu0).Seconds()
		setups = append(setups, st)
		return inst, nil
	}
	// setUpIdle sets the workload up n times without loading it.
	setUpIdle := func(n int) error {
		for i := 0; i < n; i++ {
			inst, err := setUp()
			if err != nil {
				return err
			}
			if err := inst.close(); err != nil {
				return err
			}
		}
		return nil
	}
	for len(roots) == 0 || wall+wall/time.Duration(len(roots)) <= budget {
		if err := setUpIdle(w.setupReps / 2); err != nil {
			return fail(err)
		}
		inst, err := setUp()
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		before, tb := sampleProcess(), sampleTelemetry()
		root := tr.begin(spanWorkload, -1, -1)
		res, err := inst.load(tr, root)
		tr.end(root)
		after, ta := sampleProcess(), sampleTelemetry()
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(err)
		}
		if len(roots) == 0 {
			first = res
		} else if res.digest != first.digest {
			return fail(fmt.Errorf("pass %d digest %s differs from pass 0 digest %s", len(roots), res.digest, first.digest))
		}
		roots = append(roots, root)
		total.merge(res)
		wall += after.wall.Sub(before.wall)
		cpu += after.cpu - before.cpu
		alloc += after.alloc - before.alloc
		gcs += after.gcs - before.gcs
		gcPause += after.gcPause - before.gcPause
		if before.steal < 0 || after.steal < 0 {
			stealKnown = false
		}
		steal += after.steal - before.steal
		tel.add(ta.sub(tb))
	}
	if err := setUpIdle(w.setupReps / 2); err != nil {
		return fail(err)
	}
	rep.Digest = first.digest
	rep.Passes = len(roots)
	rep.Attempted = total.attempted
	rep.Failed = total.attempted - total.succeeded
	if stealKnown {
		rep.Env["steal_ticks"] = fmt.Sprint(steal)
	} else {
		rep.Env["steal_ticks"] = "unknown"
	}

	cycles := float64(total.cycles)
	var setupCPU, setupWall []float64
	for _, s := range setups {
		setupCPU = append(setupCPU, s.cpu)
		setupWall = append(setupWall, s.total)
	}
	// The JSON line gates the metrics that stay steady on a shared VM.
	// Wall-clock throughput and set-up wall time moved by more than the
	// largest allowed bound with CPU steal and fsync latency (see
	// README.md), so they are reported, not gated.
	cpuPerCycle := ratio(cpu.Seconds()*1e6, cycles)
	if w.cpuPerJob {
		cpuPerCycle = median(total.jobCPUPerCycle)
	}
	rep.E2E = []metric{
		{"setup_s", median(setupCPU), "s"},
		{"cpu_us_per_cycle", cpuPerCycle, "us"},
		{"assay_cycles.p50", median(first.jobCycles), "cycles"},
		{"completed_ratio", ratio(float64(total.succeeded), float64(total.attempted)), "ratio"},
		{"alloc_kb_per_cycle", ratio(float64(alloc)/1024, cycles), "KiB"},
		{"peak_rss_mb", peakRSSMiB(), "MiB"},
	}
	rep.Info = []metric{
		{"setup_wall_s", median(setupWall), "s"},
		{"cycles_per_s", ratio(cycles, wall.Seconds()), "1/s"},
		{"jobs_per_s", ratio(float64(total.succeeded), wall.Seconds()), "1/s"},
		{"assay_cycles.mean", ratio(float64(first.cycles), float64(first.attempted)), "cycles"},
		{"sim_jobs", float64(total.attempted), "count"},
		{"passes", float64(len(roots)), "count"},
		{"load_wall_s", wall.Seconds(), "s"},
		{"load_cpu_s", cpu.Seconds(), "s"},
		{"load_cpu_us_per_cycle", ratio(cpu.Seconds()*1e6, cycles), "us"},
		{"setup_samples", float64(len(setups)), "count"},
	}
	if name == "fleet" {
		rep.Info = append(rep.Info,
			metric{"job_ms.p50", quantile(total.jobMs, 0.5), "ms"},
			metric{"job_ms.p90", quantile(total.jobMs, 0.9), "ms"},
			metric{"job_ms.samples", float64(len(total.jobMs)), "count"})
	}

	layer := func(n string, v float64, unit string) { rep.Layer = append(rep.Layer, metric{n, v, unit}) }
	c := tel.counters
	medianOf := func(f func(setupTimes) float64) float64 {
		var xs []float64
		for _, s := range setups {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	layer("setup.compile_s", medianOf(func(s setupTimes) float64 { return s.compile }), "s")
	layer("setup.presynth_s", medianOf(func(s setupTimes) float64 { return s.presynth }), "s")
	layer("setup.server_s", medianOf(func(s setupTimes) float64 { return s.server }), "s")
	layer("setup.register_s", medianOf(func(s setupTimes) float64 { return s.register }), "s")

	// The ledger: every instant of the load's wall time goes to the deepest
	// layer with a span open, or to nobody.
	self := map[string]float64{}
	var unattributed float64
	if tr != nil {
		for _, root := range roots {
			s, u := tr.attribute(root, w.layerOf, w.priority)
			for l, v := range s {
				self[l] += v
			}
			unattributed += u
		}
	}
	constructS := float64(c["synth.construct_ns"]) / 1e9
	solveS := float64(c["synth.solve_ns"]) / 1e9
	var routeMs []float64
	if tr != nil {
		routeMs = tr.durations(spanRoute)
	}
	routeCalls := float64(len(routeMs))
	schedSelf := 0.0
	if routeCalls > 0 {
		// Synthesis runs inside Route on the simulation goroutine; its
		// construction and solve times come from the synth counters.
		schedSelf = self["sched"] - constructS - solveS
	}
	layer("sim.self_s", self["sim"], "s")
	layer("sim.self_us_per_cycle", ratio(self["sim"]*1e6, cycles), "us")
	layer("sim.stalls", float64(total.stalls), "count")
	layer("sim.resyntheses", float64(total.resyntheses), "count")
	layer("sim.deadlocks", float64(total.deadlocks), "count")
	layer("sim.serialized_ops", float64(total.serialized), "count")
	layer("sim.dispense_deferrals", float64(total.deferrals), "count")
	layer("sched.self_s", schedSelf, "s")
	layer("sched.route_calls", routeCalls, "count")
	layer("sched.route_ms.p50", quantile(routeMs, 0.5), "ms")
	layer("sched.route_ms.p99", quantile(routeMs, 0.99), "ms")
	layer("sched.busy_share", ratio(self["sched"], wall.Seconds()), "ratio")
	layer("sched.obstructed_share", ratio(float64(total.obstructed), routeCalls), "ratio")
	hits := 0.0
	if routeCalls > 0 {
		hits = 1 - float64(c["sched.synth.online"])/routeCalls
	}
	layer("sched.hit_ratio", hits, "ratio")
	layer("sched.library.hits", float64(c["sched.library.hits"]), "count")
	layer("sched.cache.raw_hits", float64(c["sched.cache.raw_hits"]), "count")
	layer("sched.cache.canonical_hits", float64(c["sched.cache.canonical_hits"]), "count")
	layer("sched.synth.online", float64(c["sched.synth.online"]), "count")
	syntheses := float64(c["synth.syntheses"])
	layer("synth.syntheses", syntheses, "count")
	layer("synth.construct_s", constructS, "s")
	layer("synth.solve_s", solveS, "s")
	layer("synth.ms_per_synthesis", ratio((constructS+solveS)*1e3, syntheses), "ms")
	layer("synth.model_states.mean", ratio(tel.statesSum, float64(tel.statesCount)), "states")
	layer("mdp.vi.solves", float64(c["mdp.vi.solves"]), "count")
	layer("mdp.vi.sweeps", float64(c["mdp.vi.sweeps"]), "count")
	layer("mdp.sweeps_per_solve", ratio(float64(c["mdp.vi.sweeps"]), float64(c["mdp.vi.solves"])), "count")
	layer("mdp.prob1e_s", float64(c["mdp.prob1e.ns"])/1e9, "s")
	layer("serve.client_s", self["serve.client"], "s")
	layer("serve.event_s", self["serve.event"], "s")
	layer("serve.wait_s", self["serve.wait"], "s")
	layer("serve.submit_ms.p50", quantile(total.submitMs, 0.5), "ms")
	layer("serve.submit_ms.p99", quantile(total.submitMs, 0.99), "ms")
	layer("serve.queue_ms.p50", quantile(total.queueMs, 0.5), "ms")
	layer("serve.queue_ms.p90", quantile(total.queueMs, 0.9), "ms")
	layer("serve.run_ms.p50", quantile(total.runMs, 0.5), "ms")
	layer("serve.run_ms.p90", quantile(total.runMs, 0.9), "ms")
	layer("serve.status_ms.p50", quantile(total.statusMs, 0.5), "ms")
	layer("serve.events_per_job", ratio(float64(total.events), float64(len(total.jobMs))), "count")
	layer("serve.events.dropped", float64(total.dropped), "count")
	layer("go.gc_cycles", float64(gcs), "count")
	layer("go.gc_pause_ms", float64(gcPause)/1e6, "ms")
	layer("trace.wall_s", wall.Seconds(), "s")
	layer("trace.unattributed_share", ratio(unattributed, wall.Seconds()), "ratio")

	if tr != nil {
		dir := filepath.Join(workdir, "spans")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
		if err := tr.writeJSONL(path); err != nil {
			return fail(err)
		}
		rep.Env["spans"] = path
	}
	return rep
}

// printReport writes the human-readable report: the environment, the
// correctness checks, and every metric by name with its unit.
func printReport(w io.Writer, name string, seed uint64, traced bool, plain, rep *childReport, violations []string) {
	fmt.Fprintf(w, "loopbench %s seed=%d trace=%v go=%s gomaxprocs=%s numcpu=%s steal_ticks=%s passes=%d\n",
		name, seed, traced, plain.Env["go"], plain.Env["gomaxprocs"], plain.Env["numcpu"], plain.Env["steal_ticks"], plain.Passes)
	fmt.Fprintf(w, "  sim_digest %s  attempted %d  failed %d\n", plain.Digest, plain.Attempted, plain.Failed)
	for _, v := range violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	section := func(title string, ms []metric) {
		fmt.Fprintf(w, "  %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "    %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	section("end-to-end (untraced run)", plain.E2E)
	section("also reported, not gated (untraced run)", plain.Info)
	if traced {
		fmt.Fprintf(w, "  traced run: steal_ticks=%s spans=%s\n", rep.Env["steal_ticks"], rep.Env["spans"])
		section("per-layer (traced run)", rep.Layer)
	}
}
