package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"meda/internal/telemetry"
	"meda/pkg/api"
	"meda/pkg/client"
)

// TestMain wires the JSONL telemetry tracer when SERVE_TRACE names a file,
// so a failing CI run leaves a trace artifact behind.
func TestMain(m *testing.M) {
	var tracer *telemetry.Tracer
	if path := os.Getenv("SERVE_TRACE"); path != "" {
		f, err := os.Create(path)
		if err == nil {
			tracer = telemetry.NewTracer(f)
			telemetry.SetTracer(tracer)
		}
	}
	code := m.Run()
	if tracer != nil {
		tracer.Flush() //lint:ignore errflowstrict best-effort trace artifact on exit
	}
	os.Exit(code)
}

// testServer starts a fleet server on a loopback port and returns an SDK
// client pointed at it. The server shuts down at test cleanup.
func testServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, client.New("http://" + ln.Addr().String())
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// parkCheckpoints makes srv's chip workers block at every checkpoint until
// release is called, so a test can hold a job mid-flight without assuming
// anything about how long it runs in wall-clock time. parked receives a job
// ID the first time a worker parks: from then on that job is running and
// its chip busy. release is idempotent and also runs at cleanup (before the
// server shuts down), so a failing test never strands a worker.
func parkCheckpoints(t *testing.T, srv *Server) (parked <-chan string, release func()) {
	t.Helper()
	ch := make(chan string, 1)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	srv.Fleet.checkpointGate = func(jobID string) {
		select {
		case ch <- jobID:
		default:
		}
		<-gate
	}
	t.Cleanup(release)
	return ch, release
}

func TestRESTLifecycle(t *testing.T) {
	_, c := testServer(t, Config{})
	ctx := ctxT(t)

	// Tenant create, duplicate, list.
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "acme"); !client.IsConflict(err) {
		t.Fatalf("duplicate tenant: %v, want conflict", err)
	}
	if _, err := c.CreateTenant(ctx, "bad id!"); err == nil {
		t.Fatal("invalid tenant id accepted")
	}
	tenants, err := c.Tenants(ctx)
	if err != nil || len(tenants) != 1 || tenants[0].ID != "acme" {
		t.Fatalf("tenants = %+v, err %v", tenants, err)
	}

	// Chip create under the tenant; 404s for unknown names.
	if _, err := c.CreateChip(ctx, "acme", api.ChipSpec{ID: "c1", Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "nobody", api.ChipSpec{ID: "c1", Seed: 11}); !client.IsNotFound(err) {
		t.Fatalf("chip under unknown tenant: %v, want not-found", err)
	}
	if _, err := c.Chip(ctx, "acme", "ghost"); !client.IsNotFound(err) {
		t.Fatalf("unknown chip: %v, want not-found", err)
	}
	if _, err := c.Job(ctx, "acme", "j-999999"); !client.IsNotFound(err) {
		t.Fatalf("unknown job: %v, want not-found", err)
	}

	// Invalid job specs are rejected up front.
	if _, err := c.SubmitJob(ctx, "acme", api.JobSpec{Chip: "c1"}); err == nil {
		t.Fatal("job without benchmark or assay accepted")
	}
	if _, err := c.SubmitJob(ctx, "acme", api.JobSpec{Chip: "c1", Benchmark: "no-such-assay", Seed: 3}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}

	// A real job runs to completion.
	js, err := c.SubmitJob(ctx, "acme", api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if js.State != api.JobQueued && js.State != api.JobRunning {
		t.Fatalf("submitted job state = %q", js.State)
	}
	final, err := c.WaitJob(ctx, "acme", js.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.JobDone || final.Result == nil || !final.Result.Success {
		t.Fatalf("final = %+v", final)
	}
	if final.Result.HazardViolations != 0 {
		t.Fatalf("hazard violations = %d", final.Result.HazardViolations)
	}

	// Job listing filters by chip.
	jobs, err := c.Jobs(ctx, "acme", "c1")
	if err != nil || len(jobs) != 1 || jobs[0].ID != js.ID {
		t.Fatalf("jobs(c1) = %+v, err %v", jobs, err)
	}
	jobs, err = c.Jobs(ctx, "acme", "ghost")
	if err != nil || len(jobs) != 0 {
		t.Fatalf("jobs(ghost) = %+v, err %v", jobs, err)
	}

	// Chip status reflects the finished job; health state round-trips.
	cs, err := c.Chip(ctx, "acme", "c1")
	if err != nil || cs.JobsDone != 1 || cs.Actuations == 0 {
		t.Fatalf("chip status = %+v, err %v", cs, err)
	}
	state, err := c.ChipHealth(ctx, "acme", "c1")
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Version int `json:"version"`
		W       int `json:"w"`
		H       int `json:"h"`
	}
	if err := json.Unmarshal(state, &decoded); err != nil || decoded.W == 0 {
		t.Fatalf("chip health payload: %v (%s...)", err, state[:40])
	}
	if err := c.UploadChipHealth(ctx, "acme", "c1", state); err != nil {
		t.Fatalf("health re-upload: %v", err)
	}

	// Healthz and metrics observe the activity.
	h, err := c.Healthz(ctx)
	if err != nil || !h.OK || h.Tenants != 1 || h.Chips != 1 || h.JobsDone != 1 {
		t.Fatalf("healthz = %+v, err %v", h, err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["serve.jobs.submitted"] == 0 {
		t.Fatalf("metrics missing serve.jobs.submitted: %+v", m.Counters)
	}
}

// The WebSocket feed delivers the job lifecycle in order with increasing
// sequence numbers, scoped to the subscribed tenant.
func TestEventStreamJobLifecycle(t *testing.T) {
	_, c := testServer(t, Config{CheckpointEvery: 8})
	ctx := ctxT(t)
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTenant(ctx, "other"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "acme", api.ChipSpec{ID: "c1", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "other", api.ChipSpec{ID: "c9", Seed: 6}); err != nil {
		t.Fatal(err)
	}

	es, err := c.StreamEvents(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close() //lint:ignore errflowstrict test cleanup of a drained stream

	js, err := c.SubmitJob(ctx, "acme", api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Activity on the other tenant must not leak into acme's stream.
	if _, err := c.SubmitJob(ctx, "other", api.JobSpec{Chip: "c9", Benchmark: "serial-dilution", Seed: 6}); err != nil {
		t.Fatal(err)
	}

	var types []string
	lastSeq := int64(-1)
	sawProgress := false
	for {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("stream: %v (saw %v)", err, types)
		}
		if ev.Tenant != "acme" {
			t.Fatalf("cross-tenant event leaked: %+v", ev)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Job != js.ID {
			continue
		}
		types = append(types, ev.Type)
		if ev.Type == api.EvJobProgress {
			var p api.Progress
			if err := json.Unmarshal(ev.Data, &p); err != nil || p.Digest == "" {
				t.Fatalf("progress payload: %v (%s)", err, ev.Data)
			}
			sawProgress = true
		}
		if ev.Type == api.EvJobDone {
			break
		}
	}
	if types[0] != api.EvJobQueued || types[1] != api.EvJobStarted {
		t.Fatalf("lifecycle order = %v", types)
	}
	if !sawProgress {
		t.Fatalf("no progress events seen: %v", types)
	}
}

// Webhooks fire on matching event types with the event as JSON body.
func TestWebhookDelivery(t *testing.T) {
	got := make(chan api.Event, 16)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev api.Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err == nil {
			got <- ev
		}
	}))
	defer hook.Close()

	_, c := testServer(t, Config{})
	ctx := ctxT(t)
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "acme", api.ChipSpec{ID: "c1", Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddWebhook(ctx, "acme", api.WebhookSpec{URL: hook.URL, Events: []string{api.EvJobDone}}); err != nil {
		t.Fatal(err)
	}
	hooks, err := c.Webhooks(ctx, "acme")
	if err != nil || len(hooks) != 1 || hooks[0].URL != hook.URL {
		t.Fatalf("webhooks = %+v, err %v", hooks, err)
	}

	js, err := c.SubmitJob(ctx, "acme", api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, "acme", js.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-got:
		if ev.Type != api.EvJobDone || ev.Job != js.ID || ev.Tenant != "acme" {
			t.Fatalf("webhook event = %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("webhook never delivered")
	}
}

// Canceling a queued job is immediate; canceling a running job lands at
// the next checkpoint. Both surface the canceled state and event.
func TestCancelQueuedAndRunning(t *testing.T) {
	srv, c := testServer(t, Config{CheckpointEvery: 8})
	parked, release := parkCheckpoints(t, srv)
	ctx := ctxT(t)
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "acme", api.ChipSpec{ID: "c1", Seed: 4}); err != nil {
		t.Fatal(err)
	}

	spec := api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 4}
	j1, err := c.SubmitJob(ctx, "acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	// j2 sits queued behind j1 on the same chip: j1 cannot finish while
	// its worker is parked, so this cancel takes the queued path.
	j2, err := c.SubmitJob(ctx, "acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.CancelJob(ctx, "acme", j2.ID)
	if err != nil || st.State != api.JobCanceled {
		t.Fatalf("queued cancel = %+v, err %v", st, err)
	}
	// Canceling an already-terminal job is idempotent.
	if st, err = c.CancelJob(ctx, "acme", j2.ID); err != nil || st.State != api.JobCanceled {
		t.Fatalf("double cancel = %+v, err %v", st, err)
	}

	// Cancel j1 while it is parked at a checkpoint, then let it go: the
	// checkpoint it resumes in sees the request.
	if id := <-parked; id != j1.ID {
		t.Fatalf("parked job = %s, want %s", id, j1.ID)
	}
	if st, err = c.Job(ctx, "acme", j1.ID); err != nil || st.State != api.JobRunning {
		t.Fatalf("parked job status = %+v, err %v", st, err)
	}
	if _, err := c.CancelJob(ctx, "acme", j1.ID); err != nil {
		t.Fatal(err)
	}
	release()
	final, err := c.WaitJob(ctx, "acme", j1.ID)
	if err != nil || final.State != api.JobCanceled {
		t.Fatalf("running cancel final = %+v, err %v", final, err)
	}

	// The chip is free again: a fresh job completes normally.
	j3, err := c.SubmitJob(ctx, "acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	if final, err = c.WaitJob(ctx, "acme", j3.ID); err != nil || final.State != api.JobDone {
		t.Fatalf("post-cancel job = %+v, err %v", final, err)
	}
}

// Health upload is refused while work is queued or running (409), and
// accepted once the chip is idle.
func TestHealthUploadConflictWhileBusy(t *testing.T) {
	srv, c := testServer(t, Config{CheckpointEvery: 8})
	parked, release := parkCheckpoints(t, srv)
	ctx := ctxT(t)
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateChip(ctx, "acme", api.ChipSpec{ID: "c1", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	state, err := c.ChipHealth(ctx, "acme", "c1")
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.SubmitJob(ctx, "acme", api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Queued or running, the chip is busy from submission on; once the
	// worker parks, it is certainly running.
	if err := c.UploadChipHealth(ctx, "acme", "c1", state); !client.IsConflict(err) {
		t.Fatalf("upload while queued: %v, want conflict", err)
	}
	<-parked
	if err := c.UploadChipHealth(ctx, "acme", "c1", state); !client.IsConflict(err) {
		t.Fatalf("upload while running: %v, want conflict", err)
	}
	if _, err := c.CancelJob(ctx, "acme", j.ID); err != nil {
		t.Fatal(err)
	}
	release()
	if _, err := c.WaitJob(ctx, "acme", j.ID); err != nil {
		t.Fatal(err)
	}
	// The worker releases the chip an instant after the job's terminal
	// state becomes visible; retry through that window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.UploadChipHealth(ctx, "acme", "c1", state)
		if err == nil {
			break
		}
		if !client.IsConflict(err) || time.Now().After(deadline) {
			t.Fatalf("upload while idle: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The store survives a full server restart: tenants, chips, webhooks and
// finished jobs all reappear.
func TestServerRestartKeepsState(t *testing.T) {
	dir := t.TempDir()

	srv1, err := NewServer(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(ln1) //nolint
	c1 := client.New("http://" + ln1.Addr().String())
	ctx := ctxT(t)
	if _, err := c1.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.CreateChip(ctx, "acme", api.ChipSpec{ID: "c1", Seed: 13}); err != nil {
		t.Fatal(err)
	}
	if err := c1.AddWebhook(ctx, "acme", api.WebhookSpec{URL: "http://127.0.0.1:1/hook"}); err != nil {
		t.Fatal(err)
	}
	j, err := c1.SubmitJob(ctx, "acme", api.JobSpec{Chip: "c1", Benchmark: "serial-dilution", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.WaitJob(ctx, "acme", j.ID)
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	_, c2 := testServer(t, Config{DataDir: dir})
	got, err := c2.Job(ctx, "acme", j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || got.Result == nil || *got.Result != *want.Result {
		t.Fatalf("restarted job = %+v, want %+v", got, want)
	}
	hooks, err := c2.Webhooks(ctx, "acme")
	if err != nil || len(hooks) != 1 {
		t.Fatalf("webhooks after restart = %+v, err %v", hooks, err)
	}
	cs, err := c2.Chip(ctx, "acme", "c1")
	if err != nil || cs.JobsDone != 1 {
		t.Fatalf("chip after restart = %+v, err %v", cs, err)
	}
}

// MaxConcurrent=1 serializes across chips but every job still finishes.
func TestMaxConcurrentSerializes(t *testing.T) {
	_, c := testServer(t, Config{MaxConcurrent: 1})
	ctx := ctxT(t)
	if _, err := c.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		chipID := fmt.Sprintf("c%d", i)
		if _, err := c.CreateChip(ctx, "acme", api.ChipSpec{ID: chipID, Seed: uint64(20 + i)}); err != nil {
			t.Fatal(err)
		}
		j, err := c.SubmitJob(ctx, "acme", api.JobSpec{Chip: chipID, Benchmark: "serial-dilution", Seed: uint64(20 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		final, err := c.WaitJob(ctx, "acme", id)
		if err != nil || final.State != api.JobDone {
			t.Fatalf("job %s = %+v, err %v", id, final, err)
		}
	}
}
