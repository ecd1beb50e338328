package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"meda/pkg/api"
	"meda/pkg/client"
)

// mediumAssay runs a couple of simulated seconds — long enough to kill the
// server mid-flight, short enough to replay twice in a test.
const mediumAssay = `assay medium
a = dis 16
b = dis 16
m = mix a b
h = mag m hold=6000
out h
`

// startServer launches a server without registering cleanup — callers that
// kill and restart manage the lifecycle themselves.
func startServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint
	return srv, client.New("http://" + ln.Addr().String())
}

func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestKillAndResume is the crash-recovery acceptance test: kill the server
// mid-assay, restart on the same data directory, and require the resumed
// execution to complete hazard-free with a result and final chip state
// byte-identical to an uninterrupted control run.
func TestKillAndResume(t *testing.T) {
	spec, job := cancelChip, cancelJob
	ctx := ctxT(t)
	cj, want, wantState := uninterrupted(t, ctx)

	// Interrupted run: same specs, crash after the first checkpoint.
	dir := t.TempDir()
	srv1, c1 := startServer(t, Config{DataDir: dir, CheckpointEvery: 4})
	if _, err := c1.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CreateChip(ctx, "acme", spec); err != nil {
		t.Fatal(err)
	}
	es, err := c1.StreamEvents(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	j1, err := c1.SubmitJob(ctx, "acme", job)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != cj.ID {
		t.Fatalf("job id %q differs from control %q; determinism comparison is off", j1.ID, cj.ID)
	}
	for {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("stream before kill: %v", err)
		}
		if ev.Type == api.EvJobProgress && ev.Job == j1.ID {
			break
		}
		if ev.Type == api.EvJobDone {
			t.Fatal("job finished before the kill — assay too short for this machine")
		}
	}
	srv1.Kill()
	es.Close() //lint:ignore errflowstrict the kill already severed the transport

	// Restart on the journal alone. The unfinished job re-queues and
	// replays from its journaled start state.
	srv2, c2 := startServer(t, Config{DataDir: dir, CheckpointEvery: 4})
	defer shutdown(t, srv2)
	h, err := c2.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ResumedJobs != 1 {
		t.Fatalf("healthz resumed_jobs = %d, want 1", h.ResumedJobs)
	}
	got, err := c2.WaitJob(ctx, "acme", j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || got.Result == nil {
		t.Fatalf("resumed run = %+v", got)
	}
	if !got.Resumed {
		t.Fatal("resumed job not flagged Resumed")
	}
	if got.Result.HazardViolations != 0 {
		t.Fatalf("resumed run had %d hazard violations", got.Result.HazardViolations)
	}
	if *got.Result != want {
		t.Fatalf("resumed result diverged:\n got %+v\nwant %+v", *got.Result, want)
	}
	gotState, err := c2.ChipHealth(ctx, "acme", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatalf("final chip state diverged after resume (%d vs %d bytes)", len(gotState), len(wantState))
	}
}

// uninterrupted runs cancelJob on cancelChip to completion on a server of
// its own, the control a resumed run must match.
func uninterrupted(t *testing.T, ctx context.Context) (api.JobStatus, api.Execution, []byte) {
	t.Helper()
	srv, c := startServer(t, Config{DataDir: t.TempDir(), CheckpointEvery: 4})
	defer shutdown(t, srv)
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "acme", cancelChip); err != nil {
		t.Fatal(err)
	}
	j, err := c.SubmitJob(ctx, "acme", cancelJob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.WaitJob(ctx, "acme", j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || !got.Result.Success {
		t.Fatalf("control run = %+v", got)
	}
	state, err := c.ChipHealth(ctx, "acme", "c1")
	if err != nil {
		t.Fatal(err)
	}
	return j, *got.Result, state
}

// parkFirstCheckpoints parks each of srv's jobs at its first checkpoint:
// at receives the job's ID, and the job runs on once the test sends on
// resume.
func parkFirstCheckpoints(srv *Server) (at <-chan string, resume chan<- struct{}) {
	atc, rc := make(chan string), make(chan struct{})
	var mu sync.Mutex
	seen := map[string]bool{}
	srv.Fleet.checkpointGate = func(id string) {
		mu.Lock()
		first := !seen[id]
		seen[id] = true
		mu.Unlock()
		if first {
			atc <- id
			<-rc
		}
	}
	return atc, rc
}

// cancelRun is a server on which job 1 was canceled at its first
// checkpoint and job 2, the same job spec, is parked at its first.
type cancelRun struct {
	srv    *Server
	c      *client.Client
	j2     string
	resume chan<- struct{}
	// fresh and worn are the chip states before job 1 and after its
	// cancel.
	fresh, worn []byte
}

var (
	cancelChip = api.ChipSpec{ID: "c1", Seed: 77}
	cancelJob  = api.JobSpec{Chip: "c1", Assay: mediumAssay, Seed: 77, KMax: 10000}
)

func startCancelRun(t *testing.T, ctx context.Context, dir string) *cancelRun {
	t.Helper()
	srv, c := startServer(t, Config{DataDir: dir, CheckpointEvery: 4})
	at, resume := parkFirstCheckpoints(srv)
	r := &cancelRun{srv: srv, c: c, resume: resume}
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "acme", cancelChip); err != nil {
		t.Fatal(err)
	}
	var err error
	if r.fresh, err = c.ChipHealth(ctx, "acme", "c1"); err != nil {
		t.Fatal(err)
	}
	j1, err := c.SubmitJob(ctx, "acme", cancelJob)
	if err != nil {
		t.Fatal(err)
	}
	<-at
	if _, err := c.CancelJob(ctx, "acme", j1.ID); err != nil {
		t.Fatal(err)
	}
	resume <- struct{}{}
	if st, err := c.WaitJob(ctx, "acme", j1.ID); err != nil || st.State != api.JobCanceled {
		t.Fatalf("job 1 = %+v, err %v; want canceled", st, err)
	}
	if r.worn, err = c.ChipHealth(ctx, "acme", "c1"); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(r.worn, r.fresh) {
		t.Fatal("job 1 left the chip unworn before its cancel")
	}
	j2, err := c.SubmitJob(ctx, "acme", cancelJob)
	if err != nil {
		t.Fatal(err)
	}
	r.j2 = j2.ID
	<-at
	return r
}

// cancelControl runs the reference sequence uninterrupted: job 1 canceled
// at its first checkpoint, then job 2 to completion. The server stays up
// until the test ends, so its journal can be read.
func cancelControl(t *testing.T, ctx context.Context, dir string) (r *cancelRun, want api.Execution, wantState []byte) {
	t.Helper()
	r = startCancelRun(t, ctx, dir)
	t.Cleanup(func() { shutdown(t, r.srv) })
	r.resume <- struct{}{}
	got, err := r.c.WaitJob(ctx, "acme", r.j2)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || !got.Result.Success {
		t.Fatalf("control job 2 = %+v", got)
	}
	if wantState, err = r.c.ChipHealth(ctx, "acme", "c1"); err != nil {
		t.Fatal(err)
	}
	return r, *got.Result, wantState
}

// checkResumed waits for job id on c and requires it to resume and land on
// the control's result and final chip state.
func checkResumed(t *testing.T, ctx context.Context, c *client.Client, id string, want api.Execution, wantState []byte) {
	t.Helper()
	got, err := c.WaitJob(ctx, "acme", id)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || got.Result == nil || !got.Resumed {
		t.Fatalf("resumed job = %+v", got)
	}
	if *got.Result != want {
		t.Fatalf("resumed result diverged:\n got %+v\nwant %+v", *got.Result, want)
	}
	gotState, err := c.ChipHealth(ctx, "acme", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatalf("final chip state diverged after resume (%d vs %d bytes)", len(gotState), len(wantState))
	}
}

// A job canceled mid-run leaves the chip worn, and the next job starts
// from that wear: killed mid-flight, the next job resumes from the state
// the cancel record journaled and lands where an uninterrupted run does.
func TestCancelThenKillResumesFromCancelState(t *testing.T) {
	ctx := ctxT(t)
	_, want, wantState := cancelControl(t, ctx, t.TempDir())

	dir := t.TempDir()
	r := startCancelRun(t, ctx, dir)
	killed := make(chan struct{})
	go func() {
		r.srv.Kill()
		close(killed)
	}()
	<-r.srv.Fleet.stop // job 2 sees the stop at the checkpoint it is parked in
	r.resume <- struct{}{}
	<-killed

	srv, c := startServer(t, Config{DataDir: dir, CheckpointEvery: 4})
	defer shutdown(t, srv)
	checkResumed(t, ctx, c, r.j2, want, wantState)
}

// A journal written before the end records carried the chip state still
// replays: its cancel record has no state, the next job's start record
// pins the worn one, and progress records are ignored.
func TestReplayJournalWithStartRecords(t *testing.T) {
	ctx := ctxT(t)
	ctl, want, wantState := cancelControl(t, ctx, t.TempDir())

	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []payload{
		tenantCreateRec{ID: "acme"},
		chipCreateRec{Tenant: "acme", Spec: cancelChip, State: ctl.fresh},
		jobSubmitRec{ID: "j-000001", Tenant: "acme", Spec: cancelJob},
		jobStartRec{Job: "j-000001", Tenant: "acme", Chip: "c1", State: ctl.fresh},
		jobProgressRec{Job: "j-000001", Progress: api.Progress{Cycle: 4}},
		jobCancelRec{Job: "j-000001"},
		jobSubmitRec{ID: ctl.j2, Tenant: "acme", Spec: cancelJob},
		jobStartRec{Job: ctl.j2, Tenant: "acme", Chip: "c1", State: ctl.worn},
		jobProgressRec{Job: ctl.j2, Progress: api.Progress{Cycle: 4}},
	} {
		if err := s.Append(p, true); err != nil {
			t.Fatal(err)
		}
	}
	s.CloseAbrupt()

	srv, c := startServer(t, Config{DataDir: dir, CheckpointEvery: 4})
	defer shutdown(t, srv)
	if st, err := c.Job(ctx, "acme", "j-000001"); err != nil || st.State != api.JobCanceled {
		t.Fatalf("job 1 after replay = %+v, err %v", st, err)
	}
	checkResumed(t, ctx, c, ctl.j2, want, wantState)
}

// Each job ends in one record that carries the chip state, and no record
// is journaled at its start or its checkpoints.
func TestJournalHoldsEndRecordsOnly(t *testing.T) {
	ctx := ctxT(t)
	dir := t.TempDir()
	r, _, wantState := cancelControl(t, ctx, dir)

	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := readJournal(f, 0)
	f.Close() //lint:ignore errflowstrict read-only test file
	if err != nil || dropped != 0 {
		t.Fatalf("reading the journal: %v (%d dropped)", err, dropped)
	}
	var types []string
	for _, rec := range recs {
		types = append(types, rec.Type)
	}
	wantTypes := []string{recTenantCreate, recChipCreate, recJobSubmit, recJobCancel, recJobSubmit, recJobDone}
	if !slices.Equal(types, wantTypes) {
		t.Fatalf("journal records = %v, want %v", types, wantTypes)
	}
	// The journal keeps each state compact, without the newline that
	// chip.SaveState ends it with.
	cancel, err := decodePayload(recs[3])
	if err != nil {
		t.Fatal(err)
	}
	if got := cancel.(jobCancelRec).State; !bytes.Equal(got, bytes.TrimSpace(r.worn)) {
		t.Errorf("the cancel record carries %d state bytes, want the %d the chip ended with", len(got), len(r.worn))
	}
	done, err := decodePayload(recs[5])
	if err != nil {
		t.Fatal(err)
	}
	if got := done.(jobDoneRec); got.Job != r.j2 || got.Result == nil || !bytes.Equal(got.State, bytes.TrimSpace(wantState)) {
		t.Errorf("the done record is %s with %d state bytes, want %s with the %d the chip ended with",
			got.Job, len(got.State), r.j2, len(wantState))
	}
}

// When a job's end record cannot be journaled, the chip goes back to the
// last journaled state rather than keep the job's wear, and the job fails.
func TestFailedEndAppendReloadsChip(t *testing.T) {
	ctx := ctxT(t)
	srv, c := startServer(t, Config{DataDir: t.TempDir(), CheckpointEvery: 4})
	defer srv.Kill()
	parked, release := parkCheckpoints(t, srv)
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "acme", cancelChip); err != nil {
		t.Fatal(err)
	}
	before, err := c.ChipHealth(ctx, "acme", "c1")
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.SubmitJob(ctx, "acme", cancelJob)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	srv.Fleet.store.CloseAbrupt() // every later append fails
	release()
	got, err := c.WaitJob(ctx, "acme", j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobFailed || got.Result != nil {
		t.Fatalf("job with an unjournaled end = %+v, want failed", got)
	}
	if after, err := c.ChipHealth(ctx, "acme", "c1"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("chip health after the failed append changed (err %v)", err)
	}
	f := srv.Fleet
	f.mu.Lock()
	ce := f.chips[chipKey{"acme", "c1"}]
	var live bytes.Buffer
	err = ce.c.SaveState(&live)
	actuations := ce.summary.actuations
	f.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), before) || actuations != 0 {
		t.Fatalf("the live chip kept the job's wear (%d actuations)", actuations)
	}
}

// A job whose end append failed is never published: Shutdown reports the
// failure and leaves the snapshot as it was, and the reopened server runs
// the job again, as resumed, to the result and final chip state of an
// uninterrupted run.
func TestFailedAppendNeverPublished(t *testing.T) {
	ctx := ctxT(t)
	_, want, wantState := uninterrupted(t, ctx)

	dir := t.TempDir()
	srv, c := startServer(t, Config{DataDir: dir, CheckpointEvery: 4})
	parked, release := parkCheckpoints(t, srv)
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "acme", cancelChip); err != nil {
		t.Fatal(err)
	}
	j, err := c.SubmitJob(ctx, "acme", cancelJob)
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	srv.Fleet.store.CloseAbrupt() // every later append fails
	release()
	if st, err := c.WaitJob(ctx, "acme", j.ID); err != nil || st.State != api.JobFailed {
		t.Fatalf("job with an unjournaled end = %+v, err %v; want failed", st, err)
	}
	snapPath := filepath.Join(dir, snapshotName)
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err == nil {
		t.Fatal("shutdown after a failed append reported no error")
	}
	if got, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(got, snap) {
		t.Fatalf("shutdown rewrote the snapshot after a failed append (err %v)", err)
	}

	srv2, c2 := startServer(t, Config{DataDir: dir, CheckpointEvery: 4})
	defer shutdown(t, srv2)
	checkResumed(t, ctx, c2, j.ID, want, wantState)
}

// openFleet starts a fleet and shuts it down at cleanup, unless the test
// stopped it first.
func openFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Shutdown(); err != nil {
			t.Error(err)
		}
	})
	return f
}

// waitFleetJob polls a job until it ends.
func waitFleetJob(t *testing.T, f *Fleet, tenant, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := f.Job(tenant, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not end: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The health download is byte-identical across a restart, clean or
// killed, after chip creation, after a job, and after a pretty-printed
// upload: the fleet serves the one stored copy of the state, and the
// store keeps it in the form replay decodes.
func TestHealthDownloadSurvivesRestart(t *testing.T) {
	cfg := Config{DataDir: t.TempDir()}
	f := openFleet(t, cfg)
	if err := f.CreateTenant(api.TenantSpec{ID: "acme"}); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateChip("acme", api.ChipSpec{ID: "c1", Seed: 13}, nil); err != nil {
		t.Fatal(err)
	}
	health := func() []byte {
		t.Helper()
		b, err := f.ChipHealth("acme", "c1")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	survives := func(after string) {
		t.Helper()
		want := health()
		for _, kill := range []bool{false, true} {
			how := "shutdown"
			if kill {
				how = "kill"
				f.Kill()
			} else if err := f.Shutdown(); err != nil {
				t.Fatal(err)
			}
			f = openFleet(t, cfg)
			if got := health(); !bytes.Equal(got, want) {
				t.Fatalf("after %s, a %s and reopen changed the download: %d bytes, %d before", after, how, len(got), len(want))
			}
		}
	}
	survives("chip creation")

	j, err := f.SubmitJob("acme", api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFleetJob(t, f, "acme", j.ID); st.State != api.JobDone {
		t.Fatalf("job = %+v", st)
	}
	survives("a job")

	var pretty bytes.Buffer
	if err := json.Indent(&pretty, health(), "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := f.UploadChipHealth("acme", "c1", pretty.Bytes()); err != nil {
		t.Fatal(err)
	}
	survives("a pretty-printed upload")
}

// An ephemeral fleet and a durable one answer alike for the same job
// sequence (a job done, one canceled while queued, one failed): both read
// the one State, and only the durable one journals it.
func TestEphemeralMatchesDurable(t *testing.T) {
	type answers struct {
		jobs   []api.JobStatus
		chips  []api.ChipStatus
		health [][]byte
		h      api.Health
	}
	run := func(cfg Config) answers {
		cfg.CheckpointEvery = 8
		f := openFleet(t, cfg)
		parked, gate := make(chan string, 1), make(chan struct{})
		f.checkpointGate = func(id string) {
			select {
			case parked <- id:
			default:
			}
			<-gate
		}
		if err := f.CreateTenant(api.TenantSpec{ID: "acme"}); err != nil {
			t.Fatal(err)
		}
		for i, id := range []string{"c1", "c2"} {
			if err := f.CreateChip("acme", api.ChipSpec{ID: id, Seed: uint64(5 + i)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		var ids []string
		for _, spec := range []api.JobSpec{
			{Chip: "c1", Benchmark: "serial-dilution", Seed: 5},
			{Chip: "c1", Benchmark: "cep", Seed: 6},
			{Chip: "c1", Assay: "assay big\ns = dis 5000\nout s", Seed: 1},
			{Chip: "c1", Benchmark: "master-mix", Seed: 7},
		} {
			st, err := f.SubmitJob("acme", spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, st.ID)
		}
		<-parked // the first job runs, so the second is queued behind it
		if _, err := f.CancelJob("acme", ids[1]); err != nil {
			t.Fatal(err)
		}
		close(gate)
		for _, id := range ids {
			waitFleetJob(t, f, "acme", id)
		}
		var a answers
		var err error
		if a.jobs, err = f.Jobs("acme", ""); err != nil {
			t.Fatal(err)
		}
		if a.chips, err = f.Chips("acme"); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"c1", "c2"} {
			b, err := f.ChipHealth("acme", id)
			if err != nil {
				t.Fatal(err)
			}
			a.health = append(a.health, b)
		}
		a.h = f.Healthz()
		return a
	}
	ephemeral, durable := run(Config{}), run(Config{DataDir: t.TempDir()})
	want := []api.JobState{api.JobDone, api.JobCanceled, api.JobFailed, api.JobDone}
	for i, st := range durable.jobs {
		if st.State != want[i] {
			t.Fatalf("job %d = %+v, want %s", i, st, want[i])
		}
	}
	if !reflect.DeepEqual(ephemeral, durable) {
		t.Fatalf("ephemeral and durable fleets differ:\n%+v\n%+v", ephemeral, durable)
	}
}
