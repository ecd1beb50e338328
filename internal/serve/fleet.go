// The fleet: multiplexing many tenants' simulated MEDA biochips over the
// repo's synthesis/scheduling/simulation machinery in one controller
// process.
//
// # Tenancy and sharing
//
// Every chip belongs to one tenant and is owned by one worker goroutine,
// which executes that chip's jobs strictly in order (wear carries from job
// to job, so order is semantics, not scheduling detail). What *is* shared —
// deliberately, across tenants — are the strategy stores: one
// sched.Library of healthy-chip strategies and one sched.Cache of the
// strategies of every other window serve every chip's Adaptive router.
// A Cache entry is keyed by the window's position, health hash and
// obstacle signature, so a tenant whose congruent chip reaches the same
// health and meets the same droplets around a window is served the
// strategy another tenant's job synthesized, bit-identical to a fresh
// synthesis of its own job. A Library entry is keyed by the window's
// D4-canonical geometry and serves every translated, rotated or reflected
// all-healthy copy of the job that stored it: the strategy is optimal for
// each copy, but its tie-breaks can differ from a fresh synthesis of the
// copy itself. Sharing therefore never changes a route's expected cost,
// but which job stored a Library entry first can choose between equally
// short routes.
//
// # Determinism and resume
//
// A job's execution is a pure function of (chip state at job start, chip
// spec, job spec, the Library entries it is served): the simulation RNG
// derives from the job seed, the soft-fault injector from the chip and job
// seeds, and a Cache hit equals a fresh synthesis. The store journals the
// chip state when a job starts; a controller restart re-queues unfinished
// jobs and replays them from that state, landing on byte-identical results
// when the Library serves the same entries — checkpoint digests journaled
// along the way let tests verify this.
// Per-chip fault-injection seeds keep tenants isolated: no tenant's seed
// choice can perturb another's executions.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/dsl"
	"meda/internal/fault"
	"meda/internal/plan"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/sim"
	"meda/internal/synth"
	"meda/internal/telemetry"
	"meda/pkg/api"
)

var (
	telJobsSubmitted = telemetry.C("serve.jobs.submitted")
	telJobsResumed   = telemetry.C("serve.jobs.resumed")
	telJournalDrops  = telemetry.C("serve.journal.dropped_records")
)

// Config tunes the fleet controller.
type Config struct {
	// DataDir is the durable-state directory; empty runs ephemerally (no
	// persistence, no resume).
	DataDir string
	// MaxConcurrent bounds simultaneously executing assays fleet-wide;
	// zero means GOMAXPROCS.
	MaxConcurrent int
	// CheckpointEvery is the cycle interval between execution checkpoints
	// (progress journaling, event emission, cooperative abort); zero
	// means 16.
	CheckpointEvery int
	// SnapshotEvery, when positive, snapshots the store periodically so
	// journal replay after a crash stays short.
	SnapshotEvery time.Duration
}

// Cooperative-abort causes, distinguished by the job runner after an
// execution stops at a checkpoint.
var (
	errStopping = errors.New("serve: controller stopping")
	errCanceled = errors.New("serve: job canceled")
)

// job is the runtime state of one submitted job.
type job struct {
	id     string
	tenant string
	spec   api.JobSpec
	state  api.JobState
	result *api.Execution
	errMsg string
	prog   *api.Progress
	// cancelReq asks the running execution to stop at its next
	// checkpoint.
	cancelReq bool
	resumed   bool
}

func (j *job) status() api.JobStatus {
	st := api.JobStatus{
		ID: j.id, Tenant: j.tenant, Spec: j.spec, State: j.state,
		Error: j.errMsg, Resumed: j.resumed,
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	if j.prog != nil {
		p := *j.prog
		st.Progress = &p
	}
	return st
}

// chipEntry is the runtime state of one chip. The chip object itself is
// owned by the chip's worker goroutine while a job runs; handler-visible
// facts (summary, stateJSON, queue) live here under the fleet mutex.
type chipEntry struct {
	tenant   string
	spec     api.ChipSpec
	c        *chip.Chip
	router   sched.Router
	queue    []*job
	running  *job
	jobsDone int
	// stateJSON is chip.SaveState as of the last job boundary or health
	// upload: the base state the next job starts from, and what the
	// health-download endpoint serves.
	stateJSON []byte
	summary   chipSummary
	notify    chan struct{}
}

type chipSummary struct {
	minHealth  int
	meanMilli  int
	actuations int
}

type tenantRT struct {
	id       string
	chips    map[string]*chipEntry
	webhooks []api.WebhookSpec
}

// Fleet is the multi-tenant controller.
type Fleet struct {
	cfg      Config
	store    *Store // nil when ephemeral
	bus      *Bus
	notifier *webhookNotifier
	lib      *sched.Library
	cache    *sched.Cache
	libSaved uint64 // library generation at last persisted save

	mu       sync.Mutex
	tenants  map[string]*tenantRT
	jobs     map[string]*job
	jobOrder []string
	jobSeq   int
	resumed  int
	stopped  bool

	sem    chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup // chip workers
	bgWG   sync.WaitGroup // periodic snapshotter
	doneCh chan struct{}  // closed when the snapshotter should quit

	// checkpointGate, when set, runs on the worker goroutine at the top of
	// every checkpoint callback. Only tests set it, to park a running job
	// at a known point until they release it.
	checkpointGate func(jobID string)
}

// NewFleet opens the store (replaying any journal), rebuilds tenants,
// chips, and jobs, re-queues unfinished jobs for deterministic replay, and
// starts the per-chip workers.
func NewFleet(cfg Config) (*Fleet, error) {
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 16
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	f := &Fleet{
		cfg:      cfg,
		bus:      NewBus(),
		notifier: newWebhookNotifier(),
		lib:      sched.NewLibrary(),
		cache:    sched.NewCache(sched.DefaultCacheSize),
		tenants:  make(map[string]*tenantRT),
		jobs:     make(map[string]*job),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		stop:     make(chan struct{}),
		doneCh:   make(chan struct{}),
	}
	if cfg.DataDir != "" {
		store, err := OpenStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		f.store = store
		telJournalDrops.Add(int64(store.Dropped()))
		if err := f.restore(store.State()); err != nil {
			return nil, err
		}
	}
	f.mu.Lock()
	for _, t := range f.tenants {
		for _, ce := range t.chips {
			f.startWorker(ce)
		}
	}
	f.mu.Unlock()
	if f.store != nil && cfg.SnapshotEvery > 0 {
		f.bgWG.Add(1)
		go f.snapshotLoop()
	}
	return f, nil
}

// restore rebuilds runtime state from the persisted mirror.
func (f *Fleet) restore(st *State) error {
	if len(st.Library) > 0 {
		if err := f.lib.Load(bytes.NewReader(st.Library)); err != nil {
			return err
		}
	}
	f.libSaved = f.lib.Generation()
	f.jobSeq = st.JobSeq
	for id, pt := range st.Tenants {
		t := &tenantRT{id: id, chips: make(map[string]*chipEntry)}
		t.webhooks = append(t.webhooks, pt.Webhooks...)
		for cid, pc := range pt.Chips {
			ce, err := f.buildChip(id, pc.Spec, pc.State)
			if err != nil {
				return fmt.Errorf("serve: restoring chip %s/%s: %w", id, cid, err)
			}
			ce.jobsDone = pc.JobsDone
			t.chips[cid] = ce
		}
		f.tenants[id] = t
	}
	// Jobs, in submission order; unfinished ones are re-queued for replay.
	for _, jid := range st.JobOrder {
		pj := st.Jobs[jid]
		if pj == nil {
			continue
		}
		j := &job{id: pj.ID, tenant: pj.Tenant, spec: pj.Spec, state: pj.State, errMsg: pj.Error}
		if pj.Result != nil {
			r := *pj.Result
			j.result = &r
		}
		if !pj.State.Terminal() {
			j.state = api.JobQueued
			j.resumed = true
			f.resumed++
			telJobsResumed.Inc()
			if t := f.tenants[pj.Tenant]; t != nil {
				if ce := t.chips[pj.Spec.Chip]; ce != nil {
					ce.queue = append(ce.queue, j)
				}
			}
		}
		f.jobs[jid] = j
		f.jobOrder = append(f.jobOrder, jid)
	}
	return nil
}

// buildChip constructs the runtime chip entry: the chip object (from a
// persisted state when given, freshly fabricated otherwise) and its router
// wired to the fleet-shared strategy library and cache.
func (f *Fleet) buildChip(tenantID string, spec api.ChipSpec, state []byte) (*chipEntry, error) {
	var c *chip.Chip
	var err error
	if len(state) > 0 {
		c, err = chip.LoadState(bytes.NewReader(state))
	} else {
		c, err = chip.New(chipConfig(spec), randx.New(spec.Seed).Split("chip"))
	}
	if err != nil {
		return nil, err
	}
	if len(state) == 0 {
		var buf bytes.Buffer
		if err := c.SaveState(&buf); err != nil {
			return nil, err
		}
		state = buf.Bytes()
	}
	ad := &sched.Adaptive{Opt: synth.DefaultOptions(), Lib: f.lib, Cache: f.cache}
	var r sched.Router = ad
	if spec.InjectRate > 0 {
		r = sched.NewFallback(ad, sched.NewBaseline())
	}
	ce := &chipEntry{
		tenant: tenantID, spec: spec, c: c, router: r,
		stateJSON: state, notify: make(chan struct{}, 1),
		summary: summarize(c),
	}
	return ce, nil
}

// chipConfig maps a wire spec onto the chip package's configuration.
func chipConfig(spec api.ChipSpec) chip.Config {
	cfg := chip.Default()
	if spec.W > 0 {
		cfg.W = spec.W
	}
	if spec.H > 0 {
		cfg.H = spec.H
	}
	switch strings.ToLower(spec.HardFaults) {
	case "uniform":
		cfg.Faults = degrade.FaultPlan{Mode: degrade.FaultUniform, Fraction: spec.FaultFraction, FailAfterLo: 10, FailAfterHi: 120}
	case "clustered":
		cfg.Faults = degrade.FaultPlan{Mode: degrade.FaultClustered, Fraction: spec.FaultFraction, FailAfterLo: 10, FailAfterHi: 120}
	}
	return cfg
}

// validateChipSpec rejects specs chipConfig cannot honor.
func validateChipSpec(spec api.ChipSpec) error {
	if err := api.ValidateID("chip", spec.ID); err != nil {
		return err
	}
	switch strings.ToLower(spec.HardFaults) {
	case "", "none", "uniform", "clustered":
	default:
		return fmt.Errorf("hard_faults must be none, uniform, or clustered")
	}
	if spec.InjectRate < 0 || spec.InjectRate > 1 {
		return fmt.Errorf("inject_rate must be in [0,1]")
	}
	if spec.InjectKinds != "" {
		if _, err := fault.ParseKinds(spec.InjectKinds); err != nil {
			return err
		}
	}
	return chipConfig(spec).Validate()
}

// summarize derives the handler-visible health summary. The caller must own
// the chip (its worker goroutine, or the fleet lock while the chip is
// idle).
func summarize(c *chip.Chip) chipSummary {
	m := c.HealthMatrix()
	minH := 1<<c.HealthBits() - 1
	sum, n := 0, 0
	for _, row := range m {
		for _, h := range row {
			if h < minH {
				minH = h
			}
			sum += h
			n++
		}
	}
	mean := 0
	if n > 0 {
		mean = sum * 1000 / n
	}
	return chipSummary{minHealth: minH, meanMilli: mean, actuations: c.TotalActuations()}
}

// startWorker launches the chip's worker goroutine. Caller holds f.mu.
func (f *Fleet) startWorker(ce *chipEntry) {
	f.wg.Add(1)
	go f.worker(ce)
	// Wake it immediately in case restore left jobs queued.
	select {
	case ce.notify <- struct{}{}:
	default:
	}
}

// worker owns one chip: it executes the chip's queue in order until the
// fleet stops.
func (f *Fleet) worker(ce *chipEntry) {
	defer f.wg.Done()
	for {
		j := f.takeJob(ce)
		if j == nil {
			select {
			case <-f.stop:
				return
			case <-ce.notify:
				continue
			}
		}
		select {
		case f.sem <- struct{}{}:
		case <-f.stop:
			f.requeue(ce, j)
			return
		}
		f.runJob(ce, j)
		<-f.sem
		select {
		case <-f.stop:
			return
		default:
		}
	}
}

// takeJob pops the queue head, skipping jobs canceled while queued. The
// popped job becomes the chip's running job at once, while it still waits
// for a concurrency slot: from the pop on the worker owns the chip, so a
// health upload must see it busy.
func (f *Fleet) takeJob(ce *chipEntry) *job {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(ce.queue) > 0 {
		j := ce.queue[0]
		ce.queue = ce.queue[1:]
		if j.state == api.JobQueued && !j.cancelReq {
			ce.running = j
			return j
		}
	}
	return nil
}

// requeue puts a popped-but-never-started job back at the queue head.
func (f *Fleet) requeue(ce *chipEntry, j *job) {
	f.mu.Lock()
	ce.running = nil
	ce.queue = append([]*job{j}, ce.queue...)
	f.mu.Unlock()
}

// compilePlan builds the routing-job plan for a job spec on a chip.
func compilePlan(spec api.JobSpec, w, h int) (*route.Plan, error) {
	area := spec.Area
	if area <= 0 {
		area = 16
	}
	if spec.Benchmark != "" {
		b, ok := assay.ParseBenchmark(spec.Benchmark)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (want one of %s)",
				spec.Benchmark, strings.Join(assay.BenchmarkSlugs(), ", "))
		}
		return route.Compile(b.Build(assay.Layout{W: w, H: h}, area), w, h)
	}
	g, err := dsl.Parse(strings.NewReader(spec.Assay))
	if err != nil {
		return nil, err
	}
	placed, err := plan.NewPlacer(w, h).Place(g)
	if err != nil {
		return nil, err
	}
	return route.Compile(placed, w, h)
}

// injectionSeed derives the per-job soft-fault seed from the chip's
// injection seed and the job seed, so tenants are isolated (chip seed) and
// replays are exact (both inputs are journaled).
func injectionSeed(spec api.ChipSpec, jobSeed uint64) uint64 {
	base := spec.InjectSeed
	if base == 0 {
		base = spec.Seed
	}
	return base ^ (jobSeed * 0x9E3779B97F4A7C15)
}

// convertExec maps the simulator's outcome onto the wire type.
func convertExec(e sim.Execution) api.Execution {
	return api.Execution{
		Success: e.Success, Cycles: e.Cycles, Stalls: e.Stalls,
		Resyntheses: e.Resyntheses, JobsCompleted: e.JobsCompleted,
		Rollbacks: e.Rollbacks, RedoneOps: e.RedoneOps,
		Divergences: e.Divergences, DegradedJobs: e.DegradedJobs,
		HazardViolations: e.HazardViolations, Deadlocks: e.Deadlocks,
		SerializedOps: e.SerializedOps, DispenseDeferrals: e.DispenseDeferrals,
		PeakDroplets: e.PeakDroplets,
	}
}

// runJob executes one job on the worker's chip. Every state transition is
// journaled (sync on the boundaries), evented, and reflected in telemetry.
func (f *Fleet) runJob(ce *chipEntry, j *job) {
	// A cancel that arrived while the job waited for a slot already
	// journaled and announced it; otherwise the job is running from here
	// on, and later cancels stop it at a checkpoint.
	f.mu.Lock()
	if j.cancelReq {
		ce.running = nil
		f.mu.Unlock()
		return
	}
	j.state = api.JobRunning
	f.mu.Unlock()

	// Journal the start state first: this is the replay point.
	var startState []byte
	{
		var buf bytes.Buffer
		if err := ce.c.SaveState(&buf); err != nil {
			f.finishJob(ce, j, nil, fmt.Errorf("serializing chip state: %w", err))
			return
		}
		startState = buf.Bytes()
	}
	if f.store != nil {
		rec := jobStartRec{Job: j.id, Tenant: j.tenant, Chip: ce.spec.ID, State: startState}
		if err := f.store.Append(rec, true); err != nil {
			f.finishJob(ce, j, nil, err)
			return
		}
	}
	f.mu.Lock()
	ce.stateJSON = startState
	f.mu.Unlock()
	f.emit(api.Event{Type: api.EvJobStarted, Tenant: j.tenant, Chip: ce.spec.ID, Job: j.id})

	rplan, err := compilePlan(j.spec, ce.c.W(), ce.c.H())
	if err != nil {
		f.finishJob(ce, j, nil, err)
		return
	}

	cfg := sim.DefaultConfig()
	if j.spec.KMax > 0 {
		cfg.KMax = j.spec.KMax
	}
	cfg.Concurrent = j.spec.Concurrent
	if ce.spec.InjectRate > 0 {
		kinds := fault.AllKinds
		if ce.spec.InjectKinds != "" {
			kinds, _ = fault.ParseKinds(ce.spec.InjectKinds) // validated at chip creation
		}
		cfg = cfg.WithFaults(fault.Mixed(injectionSeed(ce.spec, j.spec.Seed), ce.spec.InjectRate, kinds))
	}
	cfg.CheckHazards = true
	cfg.Checkpoint = sim.CheckpointConfig{Every: f.cfg.CheckpointEvery, Fn: f.checkpointHook(ce, j)}

	runner := sim.NewRunner(cfg, ce.c, ce.router, randx.New(j.spec.Seed).Split("sim"))
	exec, err := runner.Execute(rplan)

	var abort *sim.CheckpointAbort
	if errors.As(err, &abort) {
		switch {
		case errors.Is(abort.Cause, errStopping):
			// Leave the job unfinished: the journal holds its start
			// record and no done record, so the next start replays it.
			f.mu.Lock()
			j.state = api.JobQueued
			j.prog = nil
			ce.running = nil
			ce.queue = append([]*job{j}, ce.queue...)
			f.mu.Unlock()
			return
		case errors.Is(abort.Cause, errCanceled):
			f.cancelFinish(ce, j)
			return
		}
	}
	if err != nil {
		f.finishJob(ce, j, nil, err)
		return
	}
	f.finishJob(ce, j, &exec, nil)
}

// checkpointHook builds the per-job checkpoint observer: cooperative abort,
// progress journaling, event emission, and fault-escalation deltas.
func (f *Fleet) checkpointHook(ce *chipEntry, j *job) func(sim.Checkpoint) error {
	var prev sim.Checkpoint
	return func(cp sim.Checkpoint) error {
		if f.checkpointGate != nil {
			f.checkpointGate(j.id)
		}
		select {
		case <-f.stop:
			return errStopping
		default:
		}
		// The hook runs on the worker goroutine, which owns the chip:
		// summarizing here is race-free.
		sum := summarize(ce.c)
		f.mu.Lock()
		canceled := j.cancelReq
		degradedChip := sum.minHealth < ce.summary.minHealth
		ce.summary = sum
		prog := api.Progress{
			Cycle:         cp.Exec.Cycles,
			JobsCompleted: cp.Exec.JobsCompleted,
			Droplets:      cp.Droplets,
			Digest:        fmt.Sprintf("%016x", cp.Digest()),
		}
		j.prog = &prog
		f.mu.Unlock()
		if canceled {
			return errCanceled
		}
		if f.store != nil {
			// Progress beacons ride the OS flush; only boundaries fsync.
			if err := f.store.Append(jobProgressRec{Job: j.id, Progress: prog}, false); err != nil {
				return err
			}
		}
		f.emit(api.Event{Type: api.EvJobProgress, Tenant: j.tenant, Chip: ce.spec.ID, Job: j.id, Data: mustJSON(prog)})
		if degradedChip {
			f.emit(api.Event{Type: api.EvChipDegraded, Tenant: j.tenant, Chip: ce.spec.ID, Job: j.id,
				Data: mustJSON(map[string]int{"min_health": sum.minHealth})})
		}
		type delta struct {
			ev   string
			prev int
			cur  int
		}
		for _, d := range []delta{
			{api.EvJobDegraded, prev.Exec.DegradedJobs, cp.Exec.DegradedJobs},
			{api.EvJobDeadlock, prev.Exec.Deadlocks, cp.Exec.Deadlocks},
			{api.EvJobDivergence, prev.Exec.Divergences, cp.Exec.Divergences},
			{api.EvJobHazard, prev.Exec.HazardViolations, cp.Exec.HazardViolations},
		} {
			if d.cur > d.prev {
				f.emit(api.Event{Type: d.ev, Tenant: j.tenant, Chip: ce.spec.ID, Job: j.id,
					Data: mustJSON(map[string]int{"count": d.cur})})
			}
		}
		prev = cp
		return nil
	}
}

// finishJob records a completed or failed execution.
func (f *Fleet) finishJob(ce *chipEntry, j *job, exec *sim.Execution, err error) {
	var endState []byte
	var result *api.Execution
	if err == nil && exec != nil {
		var buf bytes.Buffer
		if serr := ce.c.SaveState(&buf); serr != nil {
			err = fmt.Errorf("serializing chip state: %w", serr)
		} else {
			endState = buf.Bytes()
			r := convertExec(*exec)
			result = &r
		}
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	if f.store != nil {
		if aerr := f.store.AppendJobDone(j.id, result, errMsg, endState, true); aerr != nil && errMsg == "" {
			errMsg = aerr.Error()
			result = nil
		}
	}
	sum := summarize(ce.c)
	f.mu.Lock()
	ce.running = nil
	ce.summary = sum
	j.prog = nil
	if errMsg != "" {
		j.state = api.JobFailed
		j.errMsg = errMsg
	} else {
		j.state = api.JobDone
		j.result = result
		ce.jobsDone++
		ce.stateJSON = endState
	}
	f.mu.Unlock()
	if errMsg != "" {
		f.emit(api.Event{Type: api.EvJobFailed, Tenant: j.tenant, Chip: ce.spec.ID, Job: j.id,
			Data: mustJSON(map[string]string{"error": errMsg})})
		return
	}
	f.emit(api.Event{Type: api.EvJobDone, Tenant: j.tenant, Chip: ce.spec.ID, Job: j.id, Data: mustJSON(result)})
}

// cancelFinish records a cancellation that stopped a running execution.
func (f *Fleet) cancelFinish(ce *chipEntry, j *job) {
	if f.store != nil {
		if err := f.store.Append(jobCancelRec{Job: j.id}, true); err != nil {
			f.finishJob(ce, j, nil, err)
			return
		}
	}
	f.mu.Lock()
	ce.running = nil
	j.state = api.JobCanceled
	j.prog = nil
	f.mu.Unlock()
	f.emit(api.Event{Type: api.EvJobCanceled, Tenant: j.tenant, Chip: ce.spec.ID, Job: j.id})
}

// emit publishes an event on the bus and to the tenant's webhooks.
func (f *Fleet) emit(ev api.Event) {
	ev = f.bus.Publish(ev)
	f.mu.Lock()
	var hooks []api.WebhookSpec
	if t := f.tenants[ev.Tenant]; t != nil {
		hooks = append(hooks, t.webhooks...)
	}
	f.mu.Unlock()
	if len(hooks) > 0 {
		f.notifier.Notify(hooks, ev)
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All payloads are plain structs/maps of scalars; failure is a
		// programming error.
		panic(err)
	}
	return b
}

// saveLibrary refreshes the persisted strategy library when it changed.
func (f *Fleet) saveLibrary() error {
	if f.store == nil {
		return nil
	}
	gen := f.lib.Generation()
	if gen == f.libSaved {
		return nil
	}
	var buf bytes.Buffer
	if err := f.lib.Save(&buf); err != nil {
		return err
	}
	f.store.SetLibrary(buf.Bytes())
	f.libSaved = gen
	return nil
}

// snapshotLoop periodically persists library + snapshot.
func (f *Fleet) snapshotLoop() {
	defer f.bgWG.Done()
	t := time.NewTicker(f.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-f.doneCh:
			return
		case <-t.C:
			if err := f.saveLibrary(); err != nil {
				continue
			}
			f.store.Snapshot() //lint:ignore errflowstrict periodic snapshot failure is retried next tick; shutdown's snapshot error is propagated
		}
	}
}

// Shutdown drains gracefully: workers abort in-flight executions at their
// next checkpoint (their jobs stay journaled as unfinished and resume on
// the next start), the strategy library and a final snapshot persist, and webhook deliveries finish. Every
// persistence error propagates.
func (f *Fleet) Shutdown() error {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return nil
	}
	f.stopped = true
	f.mu.Unlock()
	f.emit(api.Event{Type: api.EvServerShutdown})
	close(f.stop)
	close(f.doneCh)
	f.wg.Wait()
	f.bgWG.Wait()
	var err error
	if f.store != nil {
		if lerr := f.saveLibrary(); lerr != nil {
			err = lerr
		}
		if cerr := f.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	f.notifier.Wait()
	return err
}

// Kill stops the fleet abruptly, simulating a crash: workers abort at their
// next checkpoint, but nothing is snapshotted — the journal alone carries
// the state forward, exactly as after a power cut. Tests use it to exercise
// the resume path.
func (f *Fleet) Kill() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	f.mu.Unlock()
	close(f.stop)
	close(f.doneCh)
	f.wg.Wait()
	f.bgWG.Wait()
	if f.store != nil {
		f.store.CloseAbrupt()
	}
}

// --- handler-facing API ---

// errNotFound distinguishes lookup failures so handlers map them to 404.
type errNotFound struct{ what string }

func (e errNotFound) Error() string { return e.what + " not found" }

// errConflict distinguishes already-exists / wrong-state failures (409).
type errConflict struct{ msg string }

func (e errConflict) Error() string { return e.msg }

// CreateTenant registers a tenant.
func (f *Fleet) CreateTenant(spec api.TenantSpec) error {
	if err := api.ValidateID("tenant", spec.ID); err != nil {
		return err
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return errConflict{"controller stopping"}
	}
	if _, ok := f.tenants[spec.ID]; ok {
		f.mu.Unlock()
		return errConflict{fmt.Sprintf("tenant %q already exists", spec.ID)}
	}
	if f.store != nil {
		if err := f.store.Append(tenantCreateRec{ID: spec.ID}, true); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	f.tenants[spec.ID] = &tenantRT{id: spec.ID, chips: make(map[string]*chipEntry)}
	f.mu.Unlock()
	f.emit(api.Event{Type: api.EvTenantCreated, Tenant: spec.ID})
	return nil
}

// Tenants lists tenants, sorted by ID.
func (f *Fleet) Tenants() []api.Tenant {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]api.Tenant, 0, len(f.tenants))
	for _, t := range f.tenants {
		jobs := 0
		for _, j := range f.jobs {
			if j.tenant == t.id {
				jobs++
			}
		}
		out = append(out, api.Tenant{ID: t.id, Chips: len(t.chips), Jobs: jobs})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Tenant reports one tenant.
func (f *Fleet) Tenant(id string) (api.Tenant, error) {
	for _, t := range f.Tenants() {
		if t.ID == id {
			return t, nil
		}
	}
	return api.Tenant{}, errNotFound{"tenant"}
}

// CreateChip fabricates (or, with state, restores) a chip under a tenant.
func (f *Fleet) CreateChip(tenantID string, spec api.ChipSpec, state []byte) error {
	if err := validateChipSpec(spec); err != nil {
		return err
	}
	if len(state) > 0 {
		if err := validateChipState(spec, state); err != nil {
			return err
		}
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return errConflict{"controller stopping"}
	}
	t := f.tenants[tenantID]
	if t == nil {
		f.mu.Unlock()
		return errNotFound{"tenant"}
	}
	if _, ok := t.chips[spec.ID]; ok {
		f.mu.Unlock()
		return errConflict{fmt.Sprintf("chip %q already exists", spec.ID)}
	}
	ce, err := f.buildChip(tenantID, spec, state)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	if f.store != nil {
		rec := chipCreateRec{Tenant: tenantID, Spec: spec, State: ce.stateJSON}
		if err := f.store.Append(rec, true); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	t.chips[spec.ID] = ce
	f.startWorker(ce)
	f.mu.Unlock()
	f.emit(api.Event{Type: api.EvChipCreated, Tenant: tenantID, Chip: spec.ID})
	return nil
}

// validateChipState checks an uploaded chip state against the spec's
// geometry by round-tripping it through the chip loader.
func validateChipState(spec api.ChipSpec, state []byte) error {
	c, err := chip.LoadState(bytes.NewReader(state))
	if err != nil {
		return err
	}
	cfg := chipConfig(spec)
	if c.W() != cfg.W || c.H() != cfg.H {
		return fmt.Errorf("uploaded state is %d×%d but the chip is %d×%d", c.W(), c.H(), cfg.W, cfg.H)
	}
	return nil
}

func (f *Fleet) chipEntry(tenantID, chipID string) (*chipEntry, error) {
	t := f.tenants[tenantID]
	if t == nil {
		return nil, errNotFound{"tenant"}
	}
	ce := t.chips[chipID]
	if ce == nil {
		return nil, errNotFound{"chip"}
	}
	return ce, nil
}

// Chips lists a tenant's chips, sorted by ID.
func (f *Fleet) Chips(tenantID string) ([]api.ChipStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tenants[tenantID]
	if t == nil {
		return nil, errNotFound{"tenant"}
	}
	out := make([]api.ChipStatus, 0, len(t.chips))
	for _, ce := range t.chips {
		out = append(out, ce.statusLocked())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Spec.ID < out[k].Spec.ID })
	return out, nil
}

// statusLocked renders the chip status; caller holds f.mu.
func (ce *chipEntry) statusLocked() api.ChipStatus {
	st := api.ChipStatus{
		Tenant: ce.tenant, Spec: ce.spec,
		QueuedJobs: len(ce.queue), JobsDone: ce.jobsDone,
		MinHealth: ce.summary.minHealth, MeanHealthMilli: ce.summary.meanMilli,
		Actuations: ce.summary.actuations,
	}
	if ce.running != nil {
		st.RunningJob = ce.running.id
	}
	return st
}

// Chip reports one chip.
func (f *Fleet) Chip(tenantID, chipID string) (api.ChipStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ce, err := f.chipEntry(tenantID, chipID)
	if err != nil {
		return api.ChipStatus{}, err
	}
	return ce.statusLocked(), nil
}

// ChipHealth returns the chip's serialized state (chip.SaveState JSON) as
// of the last job boundary or health upload.
func (f *Fleet) ChipHealth(tenantID, chipID string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ce, err := f.chipEntry(tenantID, chipID)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), ce.stateJSON...), nil
}

// UploadChipHealth replaces an idle chip's state with an uploaded health
// map (chip.SaveState JSON). A chip with queued or running jobs rejects the
// upload: the execution owns the state.
func (f *Fleet) UploadChipHealth(tenantID, chipID string, state []byte) error {
	f.mu.Lock()
	ce, err := f.chipEntry(tenantID, chipID)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	if ce.running != nil || len(ce.queue) > 0 {
		f.mu.Unlock()
		return errConflict{"chip has queued or running jobs"}
	}
	if err := validateChipState(ce.spec, state); err != nil {
		f.mu.Unlock()
		return err
	}
	c, err := chip.LoadState(bytes.NewReader(state))
	if err != nil {
		f.mu.Unlock()
		return err
	}
	// The store and the chip entry share one copy of the caller's bytes.
	own := append([]byte(nil), state...)
	if f.store != nil {
		if err := f.store.Append(chipHealthRec{Tenant: tenantID, Chip: chipID, State: own}, true); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	// Safe handoff: the worker only touches ce.c inside runJob, and every
	// job it could run was queued after this critical section.
	ce.c = c
	ce.stateJSON = own
	ce.summary = summarize(c)
	f.mu.Unlock()
	f.emit(api.Event{Type: api.EvChipHealth, Tenant: tenantID, Chip: chipID})
	return nil
}

// SubmitJob queues a job on a chip.
func (f *Fleet) SubmitJob(tenantID string, spec api.JobSpec) (api.JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return api.JobStatus{}, err
	}
	if spec.Benchmark != "" {
		if _, ok := assay.ParseBenchmark(spec.Benchmark); !ok {
			return api.JobStatus{}, fmt.Errorf("unknown benchmark %q (want one of %s)",
				spec.Benchmark, strings.Join(assay.BenchmarkSlugs(), ", "))
		}
	} else if _, err := dsl.Parse(strings.NewReader(spec.Assay)); err != nil {
		return api.JobStatus{}, err
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return api.JobStatus{}, errConflict{"controller stopping"}
	}
	ce, err := f.chipEntry(tenantID, spec.Chip)
	if err != nil {
		f.mu.Unlock()
		return api.JobStatus{}, err
	}
	id := fmt.Sprintf("j-%06d", f.jobSeq+1)
	if f.store != nil {
		if err := f.store.Append(jobSubmitRec{ID: id, Tenant: tenantID, Spec: spec}, true); err != nil {
			f.mu.Unlock()
			return api.JobStatus{}, err
		}
	}
	f.jobSeq++
	j := &job{id: id, tenant: tenantID, spec: spec, state: api.JobQueued}
	f.jobs[id] = j
	f.jobOrder = append(f.jobOrder, id)
	ce.queue = append(ce.queue, j)
	select {
	case ce.notify <- struct{}{}:
	default:
	}
	telJobsSubmitted.Inc()
	st := j.status()
	f.mu.Unlock()
	f.emit(api.Event{Type: api.EvJobQueued, Tenant: tenantID, Chip: spec.Chip, Job: id})
	return st, nil
}

// Jobs lists a tenant's jobs in submission order, optionally filtered by
// chip.
func (f *Fleet) Jobs(tenantID, chipID string) ([]api.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tenants[tenantID] == nil {
		return nil, errNotFound{"tenant"}
	}
	var out []api.JobStatus
	for _, id := range f.jobOrder {
		j := f.jobs[id]
		if j == nil || j.tenant != tenantID {
			continue
		}
		if chipID != "" && j.spec.Chip != chipID {
			continue
		}
		out = append(out, j.status())
	}
	return out, nil
}

// Job reports one job.
func (f *Fleet) Job(tenantID, jobID string) (api.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.jobs[jobID]
	if j == nil || j.tenant != tenantID {
		return api.JobStatus{}, errNotFound{"job"}
	}
	return j.status(), nil
}

// CancelJob cancels a queued job immediately or asks a running one to stop
// at its next checkpoint.
func (f *Fleet) CancelJob(tenantID, jobID string) (api.JobStatus, error) {
	f.mu.Lock()
	j := f.jobs[jobID]
	if j == nil || j.tenant != tenantID {
		f.mu.Unlock()
		return api.JobStatus{}, errNotFound{"job"}
	}
	if j.state.Terminal() {
		st := j.status()
		f.mu.Unlock()
		return st, nil
	}
	j.cancelReq = true
	queued := j.state == api.JobQueued
	var chipID string
	if queued {
		j.state = api.JobCanceled
		chipID = j.spec.Chip
	}
	st := j.status()
	f.mu.Unlock()
	if queued {
		if f.store != nil {
			if err := f.store.Append(jobCancelRec{Job: jobID}, true); err != nil {
				return st, err
			}
		}
		f.emit(api.Event{Type: api.EvJobCanceled, Tenant: tenantID, Chip: chipID, Job: jobID})
	}
	return st, nil
}

// AddWebhook registers a webhook for a tenant.
func (f *Fleet) AddWebhook(tenantID string, spec api.WebhookSpec) error {
	if spec.URL == "" {
		return fmt.Errorf("webhook url is required")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tenants[tenantID]
	if t == nil {
		return errNotFound{"tenant"}
	}
	if f.store != nil {
		if err := f.store.Append(webhookAddRec{Tenant: tenantID, Spec: spec}, true); err != nil {
			return err
		}
	}
	t.webhooks = append(t.webhooks, spec)
	return nil
}

// Webhooks lists a tenant's webhooks.
func (f *Fleet) Webhooks(tenantID string) ([]api.WebhookSpec, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.tenants[tenantID]
	if t == nil {
		return nil, errNotFound{"tenant"}
	}
	return append([]api.WebhookSpec(nil), t.webhooks...), nil
}

// Subscribe attaches an event-stream consumer for a tenant ("" = all).
func (f *Fleet) Subscribe(tenantID string) (<-chan api.Event, func()) {
	return f.bus.Subscribe(tenantID, 0)
}

// Healthz summarizes the controller.
func (f *Fleet) Healthz() api.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := api.Health{OK: !f.stopped, Tenants: len(f.tenants), ResumedJobs: f.resumed}
	for _, t := range f.tenants {
		h.Chips += len(t.chips)
	}
	for _, j := range f.jobs {
		switch j.state {
		case api.JobQueued:
			h.JobsQueued++
		case api.JobRunning:
			h.JobsRunning++
		case api.JobDone:
			h.JobsDone++
		}
	}
	return h
}
