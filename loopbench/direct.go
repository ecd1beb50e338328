package main

import (
	"fmt"
	"time"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/sim"
	"meda/internal/synth"
)

// Workload sizes. They are part of the benchmark's definition: changing one
// changes every figure, so a change to them is a change to the benchmark.
const (
	// wearChips chips, each reused for wearReuses consecutive sequential
	// executions cycling through the six evaluation bioassays. Within the
	// chips' lifetime: every execution completes.
	wearChips  = 8
	wearReuses = 20
	// crowdAssays generated mixtures of crowdParts paper protocols each,
	// every one on a fresh near-immortal chip under the concurrent executor.
	crowdAssays = 48
	crowdParts  = 2
	crowdKMax   = 8000
	// assayArea is the dispensed-droplet area of every compiled bioassay.
	assayArea = 16
)

// Span names recorded around calls into the program's layers.
const (
	spanWorkload = "workload"
	spanExecute  = "sim.Execute"
	spanRoute    = "sched.Route"
	spanJob      = "serve.job"
	spanSubmit   = "client.SubmitJob"
	spanStatus   = "client.Job"
	spanEvent    = "client.event"
)

// directJob is one Execute call of a direct (in-process, no service) workload.
type directJob struct {
	runner *sim.Runner
	plan   *route.Plan
}

// directInstance is a set-up wear or crowd workload: the jobs to execute in
// order and the routers they share.
type directInstance struct {
	jobs    []directJob
	routers []*timedRouter
}

// newRouter builds the paper's adaptive router over a shared library, wrapped
// for timing.
func newRouter(lib *sched.Library, tr *tracer) *timedRouter {
	return &timedRouter{
		Adaptive: &sched.Adaptive{Opt: synth.DefaultOptions(), Lib: lib, Cache: sched.NewCache(sched.DefaultCacheSize)},
		tr:       tr,
	}
}

// setupWear compiles the six evaluation bioassays, presynthesizes their
// healthy-chip strategies into one library, and fabricates wearChips chips
// with default degradation, each with its own adaptive router.
func setupWear(seed uint64, tr *tracer) (*directInstance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cfg := chip.Default()
	var plans []*route.Plan
	for _, b := range assay.EvaluationBenchmarks {
		p, err := route.Compile(b.Build(assay.Layout{W: cfg.W, H: cfg.H}, assayArea), cfg.W, cfg.H)
		if err != nil {
			return nil, st, fmt.Errorf("compiling %s: %w", b, err)
		}
		plans = append(plans, p)
	}
	t1 := time.Now()
	lib, err := presynthesize(plans)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	in := &directInstance{}
	src := randx.New(seed).Split("loopbench.wear")
	for k := 0; k < wearChips; k++ {
		csrc := src.SplitN("chip", k)
		c, err := chip.New(cfg, csrc.Split("chip"))
		if err != nil {
			return nil, st, err
		}
		r := newRouter(lib, tr)
		in.routers = append(in.routers, r)
		runner := sim.NewRunner(simConfig(false), c, r, csrc.Split("sim"))
		for m := 0; m < wearReuses; m++ {
			in.jobs = append(in.jobs, directJob{runner: runner, plan: plans[m%len(plans)]})
		}
	}
	t3 := time.Now()
	st.compile, st.presynth = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	st.total = t3.Sub(t0).Seconds()
	return in, st, nil
}

// nearImmortal is a chip configuration whose microelectrodes barely wear,
// isolating executor scheduling from degradation.
func nearImmortal() chip.Config {
	cfg := chip.Default()
	cfg.Normal = degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000}
	return cfg
}

// setupCrowd generates crowdAssays mixtures, each from its own mixture seed,
// compiles them, presynthesizes one library over all of them, and fabricates
// a fresh near-immortal chip for each. One adaptive router serves every
// execution.
//
// The mixture seeds form a fixed panel, the same for every run seed: which
// paper protocols a mixture draws sets its cost several-fold, so a
// seed-drawn panel of 48 would make runs on different seeds measure
// different work. The run seed draws every chip and every execution's
// randomness.
func setupCrowd(seed uint64, tr *tracer) (*directInstance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cfg := nearImmortal()
	panel := randx.New(0).Split("loopbench.crowd.panel")
	src := randx.New(seed).Split("loopbench.crowd")
	plans := make([]*route.Plan, crowdAssays)
	for i := range plans {
		mix := assay.Mixture(panel.SplitN("mixture", i).Seed(), assay.Layout{W: cfg.W, H: cfg.H}, assayArea, crowdParts)
		p, err := route.Compile(mix, cfg.W, cfg.H)
		if err != nil {
			return nil, st, fmt.Errorf("compiling %s: %w", mix.Name, err)
		}
		plans[i] = p
	}
	t1 := time.Now()
	lib, err := presynthesize(plans)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	r := newRouter(lib, tr)
	in := &directInstance{routers: []*timedRouter{r}}
	for i, p := range plans {
		csrc := src.SplitN("chip", i)
		c, err := chip.New(cfg, csrc.Split("chip"))
		if err != nil {
			return nil, st, err
		}
		in.jobs = append(in.jobs, directJob{runner: sim.NewRunner(simConfig(true), c, r, csrc.Split("sim")), plan: p})
	}
	t3 := time.Now()
	st.compile, st.presynth = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	st.total = t3.Sub(t0).Seconds()
	return in, st, nil
}

func presynthesize(plans []*route.Plan) (*sched.Library, error) {
	lib := sched.NewLibrary()
	for _, p := range plans {
		if _, err := lib.Presynthesize(p, synth.DefaultOptions()); err != nil {
			return nil, fmt.Errorf("presynthesizing: %w", err)
		}
	}
	return lib, nil
}

// simConfig is the paper's evaluation configuration with the post-motion
// hazard audit on; concurrent selects the assay-level concurrent executor.
func simConfig(concurrent bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.CheckHazards = true
	if concurrent {
		cfg.Concurrent = true
		cfg.KMax = crowdKMax
	}
	return cfg
}

// load executes every job in order on the calling goroutine.
func (in *directInstance) load(tr *tracer, root int) (passResult, error) {
	var res passResult
	d := newDigest()
	for i, j := range in.jobs {
		id := tr.begin(spanExecute, root, i)
		tr.setJob(id)
		cpu0 := processCPU()
		exec, err := j.runner.Execute(j.plan)
		jobCPU := processCPU() - cpu0
		tr.end(id)
		tr.setJob(-1)
		if err != nil {
			return res, fmt.Errorf("job %d: Execute: %w", i, err)
		}
		if exec.HazardViolations > 0 {
			return res, fmt.Errorf("job %d: %d hazard violations", i, exec.HazardViolations)
		}
		d.exec(exec)
		res.addExec(exec)
		res.jobCPUPerCycle = append(res.jobCPUPerCycle, ratio(float64(jobCPU.Nanoseconds())/1e3, float64(exec.Cycles)))
	}
	for _, r := range in.routers {
		res.obstructed += int(r.obstructed.Load())
	}
	res.digest = d.sum()
	return res, nil
}

func (in *directInstance) close() error { return nil }
