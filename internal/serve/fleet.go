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
// chip state when a job ends, so the chip record always holds the state
// the next job starts from; a controller restart re-queues unfinished jobs
// and replays them from it, landing on byte-identical results when the
// Library serves the same entries.
// Per-chip fault-injection seeds keep tenants isolated: no tenant's seed
// choice can perturb another's executions.
//
// # One copy of the durable state
//
// The fleet keeps each durable fact once, in a State: the store's mirror,
// or a journal-less one when the fleet runs ephemerally. Tenants, webhooks,
// chip specs and states, jobs_done, the job sequence and every job's spec
// and outcome are read from it, and record, under the fleet lock, is the
// one way to change it. The runtime keeps only what the journal does not
// hold: each chip's object, router, queue, running job, summary and wake-up
// channel, and each job's running flag, cancel request, progress, resumed
// flag and the error of an end that could not be journaled.
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
	// (progress events, cooperative abort); zero means 16.
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

// job is the runtime state of a job this process submitted or resumed.
// Its durable facts are pj, the mirror's record: ID, tenant and spec never
// change once the job is submitted, and its state, result and error are
// read under the fleet lock.
type job struct {
	pj *PersistedJob
	// running is set while the job executes: a job its worker popped
	// that still waits for a concurrency slot reads queued.
	running bool
	prog    *api.Progress
	// cancelReq asks the running execution to stop at its next
	// checkpoint.
	cancelReq bool
	resumed   bool
	// endErr is the error of a job whose end could not be journaled: the
	// job reads failed here, and a restart runs it again.
	endErr string
}

// chipEntry is the runtime state of one chip, beside pc, its record in the
// mirror (its spec never changes; its state and jobs_done are read under
// the fleet lock). The chip object is owned by the chip's worker goroutine
// while a job runs; the other fields live under the fleet lock. Between
// jobs the chip equals pc.State.
type chipEntry struct {
	pc      *PersistedChip
	c       *chip.Chip
	router  sched.Router
	queue   []*job
	running *job
	summary chipSummary
	notify  chan struct{}
}

type chipSummary struct {
	minHealth  int
	meanMilli  int
	actuations int
}

// chipKey names a chip fleet-wide.
type chipKey struct{ tenant, chip string }

// Fleet is the multi-tenant controller.
type Fleet struct {
	cfg      Config
	store    *Store // nil when ephemeral
	bus      *Bus
	notifier *webhookNotifier
	lib      *sched.Library
	cache    *sched.Cache
	libSaved uint64 // library generation at last persisted save

	mu sync.Mutex
	// state holds the durable facts; only record and saveLibrary change it.
	state   *State
	chips   map[chipKey]*chipEntry
	jobs    map[string]*job // jobs submitted or resumed by this process
	resumed int
	stopped bool

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

// NewFleet opens the store (replaying any journal), rebuilds the chips,
// re-queues unfinished jobs for deterministic replay, and starts the
// per-chip workers.
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
		state:    newState(),
		chips:    make(map[chipKey]*chipEntry),
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
		f.store, f.state = store, store.State()
		telJournalDrops.Add(int64(store.Dropped()))
		if err := f.restore(); err != nil {
			return nil, err
		}
	}
	f.mu.Lock()
	for _, ce := range f.chips {
		f.startWorker(ce)
	}
	f.mu.Unlock()
	if f.store != nil && cfg.SnapshotEvery > 0 {
		f.bgWG.Add(1)
		go f.snapshotLoop()
	}
	return f, nil
}

// restore builds the runtime of the mirror's chips and re-queues its
// unfinished jobs in submission order.
func (f *Fleet) restore() error {
	st := f.state
	if len(st.Library) > 0 {
		if err := f.lib.Load(bytes.NewReader(st.Library)); err != nil {
			return err
		}
	}
	f.libSaved = f.lib.Generation()
	for tid, pt := range st.Tenants {
		for cid, pc := range pt.Chips {
			c, err := chip.LoadState(bytes.NewReader(pc.State))
			if err != nil {
				return fmt.Errorf("serve: restoring chip %s/%s: %w", tid, cid, err)
			}
			f.chips[chipKey{tid, cid}] = f.newChipEntry(pc, c)
		}
	}
	for _, jid := range st.JobOrder {
		pj := st.Jobs[jid]
		if pj == nil || pj.State.Terminal() {
			continue
		}
		j := &job{pj: pj, resumed: true}
		f.jobs[jid] = j
		f.resumed++
		telJobsResumed.Inc()
		if ce := f.chips[chipKey{pj.Tenant, pj.Spec.Chip}]; ce != nil {
			ce.queue = append(ce.queue, j)
		}
	}
	return nil
}

// newChipEntry builds the runtime entry of chip pc around its chip object:
// a router wired to the fleet-shared strategy library and cache.
func (f *Fleet) newChipEntry(pc *PersistedChip, c *chip.Chip) *chipEntry {
	ad := &sched.Adaptive{Opt: synth.DefaultOptions(), Lib: f.lib, Cache: f.cache}
	var r sched.Router = ad
	if pc.Spec.InjectRate > 0 {
		r = sched.NewFallback(ad, sched.NewBaseline())
	}
	return &chipEntry{pc: pc, c: c, router: r, notify: make(chan struct{}, 1), summary: summarize(c)}
}

// saveState serializes c as the store keeps chip states: chip.SaveState's
// compact JSON without its trailing newline, the bytes replay decodes.
func saveState(c *chip.Chip) ([]byte, error) {
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// loadChipState loads an uploaded chip state, checks it against the spec's
// geometry, and returns the chip with the state in the form the store keeps
// (see saveState): compacted by json.Marshal, as the journal line holds it.
func loadChipState(spec api.ChipSpec, upload []byte) (*chip.Chip, []byte, error) {
	c, err := chip.LoadState(bytes.NewReader(upload))
	if err != nil {
		return nil, nil, err
	}
	cfg := chipConfig(spec)
	if c.W() != cfg.W || c.H() != cfg.H {
		return nil, nil, fmt.Errorf("uploaded state is %d×%d but the chip is %d×%d", c.W(), c.H(), cfg.W, cfg.H)
	}
	state, err := json.Marshal(json.RawMessage(upload))
	return c, state, err
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
		if !j.pj.State.Terminal() {
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
// evented and reflected in telemetry; finishJob journals the job's end.
func (f *Fleet) runJob(ce *chipEntry, j *job) {
	// A cancel that arrived while the job waited for a slot already
	// journaled and announced it; otherwise the job is running from here
	// on, and later cancels stop it at a checkpoint.
	f.mu.Lock()
	if j.pj.State.Terminal() {
		ce.running = nil
		f.mu.Unlock()
		return
	}
	j.running = true
	f.mu.Unlock()
	spec, chipSpec := j.pj.Spec, ce.pc.Spec
	f.emit(api.Event{Type: api.EvJobStarted, Tenant: j.pj.Tenant, Chip: chipSpec.ID, Job: j.pj.ID})

	rplan, err := compilePlan(spec, ce.c.W(), ce.c.H())
	if err != nil {
		f.finishJob(ce, j, nil, err)
		return
	}

	cfg := sim.DefaultConfig()
	if spec.KMax > 0 {
		cfg.KMax = spec.KMax
	}
	cfg.Concurrent = spec.Concurrent
	if chipSpec.InjectRate > 0 {
		kinds := fault.AllKinds
		if chipSpec.InjectKinds != "" {
			kinds, _ = fault.ParseKinds(chipSpec.InjectKinds) // validated at chip creation
		}
		cfg = cfg.WithFaults(fault.Mixed(injectionSeed(chipSpec, spec.Seed), chipSpec.InjectRate, kinds))
	}
	cfg.CheckHazards = true
	cfg.Checkpoint = sim.CheckpointConfig{Every: f.cfg.CheckpointEvery, Fn: f.checkpointHook(ce, j)}

	runner := sim.NewRunner(cfg, ce.c, ce.router, randx.New(spec.Seed).Split("sim"))
	exec, err := runner.Execute(rplan)
	if errors.Is(err, errStopping) {
		// Leave the job unfinished: the journal holds no end record for
		// it, so the next start replays it from the chip record.
		f.mu.Lock()
		j.running = false
		j.prog = nil
		ce.running = nil
		ce.queue = append([]*job{j}, ce.queue...)
		f.mu.Unlock()
		return
	}
	f.finishJob(ce, j, &exec, err)
}

// checkpointHook builds the per-job checkpoint observer: cooperative abort,
// progress and fault-escalation events.
func (f *Fleet) checkpointHook(ce *chipEntry, j *job) func(sim.Checkpoint) error {
	var prev sim.Checkpoint
	return func(cp sim.Checkpoint) error {
		if f.checkpointGate != nil {
			f.checkpointGate(j.pj.ID)
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
		f.emit(api.Event{Type: api.EvJobProgress, Tenant: j.pj.Tenant, Chip: ce.pc.Spec.ID, Job: j.pj.ID, Data: mustJSON(prog)})
		if degradedChip {
			f.emit(api.Event{Type: api.EvChipDegraded, Tenant: j.pj.Tenant, Chip: ce.pc.Spec.ID, Job: j.pj.ID,
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
				f.emit(api.Event{Type: d.ev, Tenant: j.pj.Tenant, Chip: ce.pc.Spec.ID, Job: j.pj.ID,
					Data: mustJSON(map[string]int{"count": d.cur})})
			}
		}
		prev = cp
		return nil
	}
}

// finishJob ends a job that ran: done with exec when err is nil, failed
// with err, or canceled at a checkpoint (err is errCanceled). It
// serializes the chip once and records that state in the end record, so
// the chip record is always the state the next job starts from. When no
// end record carries the state, because it could not be serialized or the
// append failed, the chip goes back to the last journaled state: the live
// chip never runs ahead of the journal.
func (f *Fleet) finishJob(ce *chipEntry, j *job, exec *sim.Execution, err error) {
	canceled := errors.Is(err, errCanceled)
	state, serr := saveState(ce.c)
	if serr != nil && (err == nil || canceled) {
		err, canceled = fmt.Errorf("serializing chip state: %w", serr), false
	}
	var result *api.Execution
	errMsg := ""
	if err == nil {
		r := convertExec(*exec)
		result = &r
	} else if !canceled {
		errMsg = err.Error()
	}
	id := j.pj.ID
	var rec payload = jobDoneRec{Job: id, Result: result, Error: errMsg, State: state}
	if canceled {
		rec = jobCancelRec{Job: id, State: state}
	}
	sum := summarize(ce.c)
	f.mu.Lock()
	if aerr := f.record(rec); aerr != nil {
		// The job has no end record: here it ends failed, and a restart
		// runs it again from the last journaled state.
		state, result, canceled = nil, nil, false
		if errMsg == "" {
			errMsg = aerr.Error()
		}
		j.endErr = errMsg
	}
	if state == nil {
		if c, lerr := chip.LoadState(bytes.NewReader(ce.pc.State)); lerr != nil {
			errMsg += "; reloading chip state: " + lerr.Error()
			j.endErr = errMsg
		} else {
			ce.c, sum = c, summarize(c)
		}
	}
	ce.running = nil
	ce.summary = sum
	j.running = false
	j.prog = nil
	f.mu.Unlock()
	ev := api.Event{Tenant: j.pj.Tenant, Chip: ce.pc.Spec.ID, Job: id}
	switch {
	case canceled:
		ev.Type = api.EvJobCanceled
	case errMsg != "":
		ev.Type, ev.Data = api.EvJobFailed, mustJSON(map[string]string{"error": errMsg})
	default:
		ev.Type, ev.Data = api.EvJobDone, mustJSON(result)
	}
	f.emit(ev)
}

// emit publishes an event on the bus and to the tenant's webhooks.
func (f *Fleet) emit(ev api.Event) {
	ev = f.bus.Publish(ev)
	f.mu.Lock()
	var hooks []api.WebhookSpec
	if t := f.state.Tenants[ev.Tenant]; t != nil {
		hooks = append(hooks, t.Webhooks...)
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

// record journals p and folds it into the state: the one way the fleet
// changes its durable facts. An ephemeral fleet folds it in directly.
// Caller holds f.mu.
func (f *Fleet) record(p payload) error {
	if f.store == nil {
		f.state.apply(p)
		return nil
	}
	return f.store.Append(p, true)
}

// locked runs fn under f.mu.
func (f *Fleet) locked(fn func() error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fn()
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
	f.mu.Lock()
	f.store.SetLibrary(buf.Bytes())
	f.mu.Unlock()
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
	err := f.locked(func() error {
		if f.stopped {
			return errConflict{"controller stopping"}
		}
		if f.state.Tenants[spec.ID] != nil {
			return errConflict{fmt.Sprintf("tenant %q already exists", spec.ID)}
		}
		return f.record(tenantCreateRec{ID: spec.ID})
	})
	if err != nil {
		return err
	}
	f.emit(api.Event{Type: api.EvTenantCreated, Tenant: spec.ID})
	return nil
}

// Tenants lists tenants, sorted by ID.
func (f *Fleet) Tenants() []api.Tenant {
	f.mu.Lock()
	defer f.mu.Unlock()
	jobs := make(map[string]int)
	for _, pj := range f.state.Jobs {
		jobs[pj.Tenant]++
	}
	out := make([]api.Tenant, 0, len(f.state.Tenants))
	for id, t := range f.state.Tenants {
		out = append(out, api.Tenant{ID: id, Chips: len(t.Chips), Jobs: jobs[id]})
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

// CreateChip fabricates (or, with an uploaded state, restores) a chip under
// a tenant.
func (f *Fleet) CreateChip(tenantID string, spec api.ChipSpec, upload []byte) error {
	if err := validateChipSpec(spec); err != nil {
		return err
	}
	var c *chip.Chip
	var state []byte
	var err error
	if len(upload) > 0 {
		c, state, err = loadChipState(spec, upload)
	} else if c, err = chip.New(chipConfig(spec), randx.New(spec.Seed).Split("chip")); err == nil {
		state, err = saveState(c)
	}
	if err != nil {
		return err
	}
	err = f.locked(func() error {
		if f.stopped {
			return errConflict{"controller stopping"}
		}
		t := f.state.Tenants[tenantID]
		if t == nil {
			return errNotFound{"tenant"}
		}
		if t.Chips[spec.ID] != nil {
			return errConflict{fmt.Sprintf("chip %q already exists", spec.ID)}
		}
		if err := f.record(chipCreateRec{Tenant: tenantID, Spec: spec, State: state}); err != nil {
			return err
		}
		ce := f.newChipEntry(t.Chips[spec.ID], c)
		f.chips[chipKey{tenantID, spec.ID}] = ce
		f.startWorker(ce)
		return nil
	})
	if err != nil {
		return err
	}
	f.emit(api.Event{Type: api.EvChipCreated, Tenant: tenantID, Chip: spec.ID})
	return nil
}

// chipEntry finds a chip's runtime entry; caller holds f.mu.
func (f *Fleet) chipEntry(tenantID, chipID string) (*chipEntry, error) {
	if f.state.Tenants[tenantID] == nil {
		return nil, errNotFound{"tenant"}
	}
	ce := f.chips[chipKey{tenantID, chipID}]
	if ce == nil {
		return nil, errNotFound{"chip"}
	}
	return ce, nil
}

// Chips lists a tenant's chips, sorted by ID.
func (f *Fleet) Chips(tenantID string) ([]api.ChipStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.state.Tenants[tenantID]
	if t == nil {
		return nil, errNotFound{"tenant"}
	}
	out := make([]api.ChipStatus, 0, len(t.Chips))
	for id := range t.Chips {
		out = append(out, f.chips[chipKey{tenantID, id}].statusLocked(tenantID))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Spec.ID < out[k].Spec.ID })
	return out, nil
}

// statusLocked renders the chip status; caller holds f.mu.
func (ce *chipEntry) statusLocked(tenantID string) api.ChipStatus {
	st := api.ChipStatus{
		Tenant: tenantID, Spec: ce.pc.Spec,
		QueuedJobs: len(ce.queue), JobsDone: ce.pc.JobsDone,
		MinHealth: ce.summary.minHealth, MeanHealthMilli: ce.summary.meanMilli,
		Actuations: ce.summary.actuations,
	}
	if ce.running != nil {
		st.RunningJob = ce.running.pj.ID
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
	return ce.statusLocked(tenantID), nil
}

// ChipHealth returns the chip's state as of chip creation, the last job
// end or health upload, as chip.SaveState writes it: the compact JSON the
// store keeps, and a newline.
func (f *Fleet) ChipHealth(tenantID, chipID string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ce, err := f.chipEntry(tenantID, chipID)
	if err != nil {
		return nil, err
	}
	return append(append(make([]byte, 0, len(ce.pc.State)+1), ce.pc.State...), '\n'), nil
}

// UploadChipHealth replaces an idle chip's state with an uploaded health
// map (chip.SaveState JSON). A chip with queued or running jobs rejects the
// upload: the execution owns the state.
func (f *Fleet) UploadChipHealth(tenantID, chipID string, upload []byte) error {
	err := f.locked(func() error {
		ce, err := f.chipEntry(tenantID, chipID)
		if err != nil {
			return err
		}
		if ce.running != nil || len(ce.queue) > 0 {
			return errConflict{"chip has queued or running jobs"}
		}
		c, state, err := loadChipState(ce.pc.Spec, upload)
		if err != nil {
			return err
		}
		if err := f.record(chipHealthRec{Tenant: tenantID, Chip: chipID, State: state}); err != nil {
			return err
		}
		// Safe handoff: the worker only touches ce.c inside runJob, and
		// every job it could run was queued after this critical section.
		ce.c, ce.summary = c, summarize(c)
		return nil
	})
	if err != nil {
		return err
	}
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
	var st api.JobStatus
	err := f.locked(func() error {
		if f.stopped {
			return errConflict{"controller stopping"}
		}
		ce, err := f.chipEntry(tenantID, spec.Chip)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("j-%06d", f.state.JobSeq+1)
		if err := f.record(jobSubmitRec{ID: id, Tenant: tenantID, Spec: spec}); err != nil {
			return err
		}
		j := &job{pj: f.state.Jobs[id]}
		f.jobs[id] = j
		ce.queue = append(ce.queue, j)
		select {
		case ce.notify <- struct{}{}:
		default:
		}
		telJobsSubmitted.Inc()
		st = f.statusLocked(j.pj)
		return nil
	})
	if err != nil {
		return api.JobStatus{}, err
	}
	f.emit(api.Event{Type: api.EvJobQueued, Tenant: tenantID, Chip: spec.Chip, Job: st.ID})
	return st, nil
}

// jobStateLocked is a job's state: the journaled one once the job ended,
// and before that the runtime's. Caller holds f.mu.
func (f *Fleet) jobStateLocked(pj *PersistedJob) api.JobState {
	j := f.jobs[pj.ID]
	switch {
	case pj.State.Terminal():
		return pj.State
	case j != nil && j.endErr != "":
		return api.JobFailed
	case j != nil && j.running:
		return api.JobRunning
	}
	return api.JobQueued
}

// statusLocked renders a job's status; caller holds f.mu.
func (f *Fleet) statusLocked(pj *PersistedJob) api.JobStatus {
	st := api.JobStatus{
		ID: pj.ID, Tenant: pj.Tenant, Spec: pj.Spec, State: f.jobStateLocked(pj), Error: pj.Error,
	}
	if pj.Result != nil {
		r := *pj.Result
		st.Result = &r
	}
	if j := f.jobs[pj.ID]; j != nil {
		st.Resumed = j.resumed
		if j.endErr != "" {
			st.Error = j.endErr
		}
		if j.prog != nil {
			p := *j.prog
			st.Progress = &p
		}
	}
	return st
}

// Jobs lists a tenant's jobs in submission order, optionally filtered by
// chip.
func (f *Fleet) Jobs(tenantID, chipID string) ([]api.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.state.Tenants[tenantID] == nil {
		return nil, errNotFound{"tenant"}
	}
	var out []api.JobStatus
	for _, id := range f.state.JobOrder {
		pj := f.state.Jobs[id]
		if pj == nil || pj.Tenant != tenantID || (chipID != "" && pj.Spec.Chip != chipID) {
			continue
		}
		out = append(out, f.statusLocked(pj))
	}
	return out, nil
}

// Job reports one job.
func (f *Fleet) Job(tenantID, jobID string) (api.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	pj := f.state.Jobs[jobID]
	if pj == nil || pj.Tenant != tenantID {
		return api.JobStatus{}, errNotFound{"job"}
	}
	return f.statusLocked(pj), nil
}

// CancelJob cancels a queued job immediately or asks a running one to stop
// at its next checkpoint.
func (f *Fleet) CancelJob(tenantID, jobID string) (api.JobStatus, error) {
	var st api.JobStatus
	queued := false
	err := f.locked(func() error {
		pj := f.state.Jobs[jobID]
		if pj == nil || pj.Tenant != tenantID {
			return errNotFound{"job"}
		}
		switch f.jobStateLocked(pj) {
		case api.JobRunning:
			f.jobs[jobID].cancelReq = true
		case api.JobQueued:
			if err := f.record(jobCancelRec{Job: jobID}); err != nil {
				return err
			}
			queued = true
		}
		st = f.statusLocked(pj)
		return nil
	})
	if err != nil {
		return api.JobStatus{}, err
	}
	if queued {
		f.emit(api.Event{Type: api.EvJobCanceled, Tenant: tenantID, Chip: st.Spec.Chip, Job: jobID})
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
	if f.state.Tenants[tenantID] == nil {
		return errNotFound{"tenant"}
	}
	return f.record(webhookAddRec{Tenant: tenantID, Spec: spec})
}

// Webhooks lists a tenant's webhooks.
func (f *Fleet) Webhooks(tenantID string) ([]api.WebhookSpec, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.state.Tenants[tenantID]
	if t == nil {
		return nil, errNotFound{"tenant"}
	}
	return append([]api.WebhookSpec(nil), t.Webhooks...), nil
}

// Subscribe attaches an event-stream consumer for a tenant ("" = all).
func (f *Fleet) Subscribe(tenantID string) (<-chan api.Event, func()) {
	return f.bus.Subscribe(tenantID, 0)
}

// Healthz summarizes the controller.
func (f *Fleet) Healthz() api.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := api.Health{OK: !f.stopped, Tenants: len(f.state.Tenants), ResumedJobs: f.resumed}
	for _, t := range f.state.Tenants {
		h.Chips += len(t.Chips)
	}
	for _, pj := range f.state.Jobs {
		switch f.jobStateLocked(pj) {
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
