package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"meda/internal/assay"
	"meda/internal/randx"
	"meda/internal/serve"
	"meda/internal/sim"
	"meda/pkg/api"
	"meda/pkg/client"
)

// Fleet workload shape: fleetTenants tenants with fleetChips chips each.
// Chip i has the same seed and job sequence in every tenant (congruent
// chips), and every chip runs fleetJobsPerChip jobs cycling the six
// evaluation bioassays, one outstanding at a time, against fleetSlots
// execution slots.
//
// Tenant t submits a chip's job k only once tenant t−1 has finished its
// congruent chip's job k, so the follower's degraded-region strategies are
// already in the fleet-wide stores: cross-tenant sharing is then a property
// of the workload, not of which jobs the two slots happened to pair. The
// server keeps its default strategy-cache size, as cmd/medad does.
const (
	fleetTenants     = 2
	fleetChips       = 2
	fleetJobsPerChip = 40
	fleetSlots       = 2
	// fleetPoll is how long the load generator waits on a silent event
	// stream before confirming its outstanding jobs with Job GETs.
	fleetPoll = 5 * time.Second
	// fleetCallTimeout bounds every client call.
	fleetCallTimeout = 60 * time.Second
)

// stampedEvent is one event-stream frame with its receipt time.
type stampedEvent struct {
	ev  api.Event
	at  time.Time
	err error
}

// fleetInstance is a set-up fleet workload: a running in-process server
// with its tenants and chips registered, a client, and an open all-tenant
// event stream.
type fleetInstance struct {
	seed     uint64
	dir      string
	srv      *serve.Server
	served   chan error
	cl       *client.Client
	stream   *client.EventStream
	events   chan stampedEvent
	quit     chan struct{}
	readDone chan struct{}
}

func tenantID(t int) string { return fmt.Sprintf("t%d", t) }
func chipID(c int) string   { return fmt.Sprintf("c%d", c) }

// setupFleet opens a server persisting to a fresh data directory, listens
// on loopback, creates the tenants and chips through pkg/client, and opens
// one all-tenant event stream.
func setupFleet(seed uint64, tr *tracer, workdir string) (instance, setupTimes, error) {
	var st setupTimes
	base := filepath.Join(workdir, "fleet")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, st, err
	}
	dir, err := os.MkdirTemp(base, "data-")
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	srv, err := serve.NewServer(serve.Config{DataDir: dir, MaxConcurrent: fleetSlots})
	if err != nil {
		os.RemoveAll(dir)
		return nil, st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		os.RemoveAll(dir)
		return nil, st, err
	}
	// The event buffer holds far more than one pass's ~20 events per job in
	// flight, so the reader never waits on the load generator while it is in
	// a client call: a full buffer would stall the WebSocket and make the
	// server drop events.
	in := &fleetInstance{seed: seed, dir: dir, srv: srv, served: make(chan error, 1),
		events: make(chan stampedEvent, 4096), quit: make(chan struct{}), readDone: make(chan struct{})}
	go func() { in.served <- srv.Serve(ln) }()
	t1 := time.Now()
	in.cl = client.New("http://" + ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), fleetCallTimeout)
	defer cancel()
	src := randx.New(seed).Split("loopbench.fleet")
	fail := func(err error) (instance, setupTimes, error) {
		close(in.readDone)
		return nil, st, errors.Join(err, in.close())
	}
	for t := 0; t < fleetTenants; t++ {
		if _, err := in.cl.CreateTenant(ctx, tenantID(t)); err != nil {
			return fail(err)
		}
		for c := 0; c < fleetChips; c++ {
			if _, err := in.cl.CreateChip(ctx, tenantID(t), api.ChipSpec{ID: chipID(c), Seed: src.SplitN("chip", c).Seed()}); err != nil {
				return fail(err)
			}
		}
	}
	t2 := time.Now()
	if in.stream, err = in.cl.StreamEvents(ctx, ""); err != nil {
		return fail(err)
	}
	go in.read()
	t3 := time.Now()
	st.server, st.register, st.total = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t0).Seconds()
	return in, st, nil
}

// read stamps every event-stream frame on receipt and hands it to the load
// generator until the stream ends.
func (in *fleetInstance) read() {
	defer close(in.readDone)
	for {
		ev, err := in.stream.Next()
		select {
		case in.events <- stampedEvent{ev: ev, at: time.Now(), err: err}:
		case <-in.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// fleetJob is one submitted job as the load generator tracks it.
type fleetJob struct {
	tenant, chip int
	no           int // index in submission order
	id           string
	span         int
	submitted    time.Time
	queued       time.Time
	started      time.Time
	events       int
}

// load keeps one job outstanding per chip, staggered across tenants, until
// every chip has run its sequence. Completions are timed from the terminal
// event's receipt; each result is then read back with a Job GET. When the
// event stream shows a sequence gap (a dropped frame) or stays silent for
// fleetPoll, the frames already received are applied first; the jobs still
// outstanding are then confirmed by Job GET, and those found finished count
// as dropped.
func (in *fleetInstance) load(tr *tracer, root int) (passResult, error) {
	var res passResult
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	call := func() (context.Context, context.CancelFunc) { return context.WithTimeout(ctx, fleetCallTimeout) }
	slugs := make([]string, len(assay.EvaluationBenchmarks))
	for i, b := range assay.EvaluationBenchmarks {
		slugs[i] = b.Slug()
	}
	src := randx.New(in.seed).Split("loopbench.fleet")
	// results[t][c] holds chip c of tenant t's results in job order; its
	// length is how many of the chip's jobs have finished.
	results := make([][][]api.Execution, fleetTenants)
	busy := make([][]bool, fleetTenants)
	for t := range results {
		results[t] = make([][]api.Execution, fleetChips)
		busy[t] = make([]bool, fleetChips)
	}
	outstanding := map[string]*fleetJob{}
	jobNo := 0

	submit := func(t, c int) error {
		seq := len(results[t][c])
		j := &fleetJob{tenant: t, chip: c, no: jobNo}
		j.span = tr.begin(spanJob, root, j.no)
		spec := api.JobSpec{
			Chip:      chipID(c),
			Benchmark: slugs[seq%len(slugs)],
			Seed:      src.SplitN("job", c*fleetJobsPerChip+seq).Seed(),
		}
		cctx, ccancel := call()
		defer ccancel()
		sp := tr.begin(spanSubmit, j.span, j.no)
		j.submitted = time.Now()
		st, err := in.cl.SubmitJob(cctx, tenantID(t), spec)
		res.submitMs = append(res.submitMs, ms(time.Since(j.submitted)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("submitting job %d of %s/%s: %w", seq, tenantID(t), chipID(c), err)
		}
		j.id = st.ID
		outstanding[j.id] = j
		busy[t][c] = true
		jobNo++
		return nil
	}
	// pump submits every chip's next job that may run now: the chip is
	// idle, has jobs left, and its leader has finished the same job.
	pump := func() error {
		for t := 0; t < fleetTenants; t++ {
			for c := 0; c < fleetChips; c++ {
				next := len(results[t][c])
				if busy[t][c] || next == fleetJobsPerChip || (t > 0 && len(results[t-1][c]) <= next) {
					continue
				}
				if err := submit(t, c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	finish := func(j *fleetJob, at time.Time, confirmed bool) error {
		delete(outstanding, j.id)
		busy[j.tenant][j.chip] = false
		res.jobMs = append(res.jobMs, ms(at.Sub(j.submitted)))
		if !j.queued.IsZero() && !j.started.IsZero() {
			res.queueMs = append(res.queueMs, ms(j.started.Sub(j.queued)))
			res.runMs = append(res.runMs, ms(at.Sub(j.started)))
		}
		res.events += j.events
		if confirmed {
			res.dropped++
		}
		tr.endAt(j.span, at)
		cctx, ccancel := call()
		defer ccancel()
		sp := tr.begin(spanStatus, root, j.no)
		t0 := time.Now()
		st, err := in.cl.Job(cctx, tenantID(j.tenant), j.id)
		res.statusMs = append(res.statusMs, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("reading job %s: %w", j.id, err)
		}
		if st.State != api.JobDone || st.Result == nil {
			return fmt.Errorf("job %s ended %s: %s", j.id, st.State, st.Error)
		}
		e := toSim(*st.Result)
		if e.HazardViolations > 0 {
			return fmt.Errorf("job %s: %d hazard violations", j.id, e.HazardViolations)
		}
		res.addExec(e)
		results[j.tenant][j.chip] = append(results[j.tenant][j.chip], *st.Result)
		return nil
	}
	// handle applies one event-stream frame to its job. It reports whether
	// the stream skipped a sequence number before the frame.
	var lastSeq int64
	handle := func(se stampedEvent) (gap bool, err error) {
		if se.err != nil {
			return false, fmt.Errorf("event stream ended with %d jobs outstanding: %w", len(outstanding), se.err)
		}
		gap = lastSeq > 0 && se.ev.Seq != lastSeq+1
		lastSeq = se.ev.Seq
		j := outstanding[se.ev.Job]
		if j == nil {
			return gap, nil
		}
		sp := tr.begin(spanEvent, j.span, j.no)
		defer tr.end(sp)
		j.events++
		switch se.ev.Type {
		case api.EvJobQueued:
			j.queued = se.at
		case api.EvJobStarted:
			j.started = se.at
		case api.EvJobDone, api.EvJobFailed, api.EvJobCanceled:
			err = finish(j, se.at, false)
		}
		return gap, err
	}
	// confirm first applies the frames already received, so a terminal
	// event that arrived after the gap is timed and not counted as dropped.
	// It then reads every job still outstanding back and finishes those
	// that have ended: their terminal events were dropped.
	confirm := func() error {
		for drained := false; !drained; {
			select {
			case se := <-in.events:
				if _, err := handle(se); err != nil {
					return err
				}
			default:
				drained = true
			}
		}
		for _, j := range sortedJobs(outstanding) {
			cctx, ccancel := call()
			st, err := in.cl.Job(cctx, tenantID(j.tenant), j.id)
			ccancel()
			if err != nil {
				return fmt.Errorf("confirming job %s: %w", j.id, err)
			}
			if st.State.Terminal() {
				if err := finish(j, time.Now(), true); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if err := pump(); err != nil {
		return res, err
	}
	for len(outstanding) > 0 {
		var gap bool
		select {
		case se := <-in.events:
			var err error
			if gap, err = handle(se); err != nil {
				return res, err
			}
		case <-time.After(fleetPoll):
			gap = true
		}
		if gap {
			if err := confirm(); err != nil {
				return res, err
			}
		}
		if err := pump(); err != nil {
			return res, err
		}
	}
	d := newDigest()
	for t := range results {
		for c := range results[t] {
			for _, e := range results[t][c] {
				d.str(tenantID(t) + "/" + chipID(c))
				d.exec(toSim(e))
			}
		}
	}
	res.digest = d.sum()
	return res, nil
}

// sortedJobs lists the outstanding jobs in a fixed order (tenant, chip).
func sortedJobs(m map[string]*fleetJob) []*fleetJob {
	var out []*fleetJob
	for t := 0; t < fleetTenants; t++ {
		for c := 0; c < fleetChips; c++ {
			for _, j := range m {
				if j.tenant == t && j.chip == c {
					out = append(out, j)
				}
			}
		}
	}
	return out
}

// close shuts the server down gracefully (which ends the event stream),
// waits for the stream reader and the serve loop, and removes the data
// directory.
func (in *fleetInstance) close() error {
	close(in.quit)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if in.stream != nil {
		in.stream.Close() //lint:ignore errflowstrict the server already ended the stream
	}
	<-in.readDone
	err = errors.Join(err, <-in.served, os.RemoveAll(in.dir))
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// toSim maps the wire execution back onto sim.Execution for the digest.
func toSim(e api.Execution) sim.Execution {
	return sim.Execution{
		Success: e.Success, Cycles: e.Cycles, Stalls: e.Stalls,
		Resyntheses: e.Resyntheses, JobsCompleted: e.JobsCompleted,
		Rollbacks: e.Rollbacks, RedoneOps: e.RedoneOps,
		Divergences: e.Divergences, DegradedJobs: e.DegradedJobs,
		HazardViolations: e.HazardViolations, Deadlocks: e.Deadlocks,
		SerializedOps: e.SerializedOps, DispenseDeferrals: e.DispenseDeferrals,
		PeakDroplets: e.PeakDroplets,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
