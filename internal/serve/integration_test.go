package serve

import (
	"bytes"
	"context"
	"net"
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
	spec := api.ChipSpec{ID: "c1", Seed: 77}
	job := api.JobSpec{Chip: "c1", Assay: mediumAssay, Seed: 77, KMax: 10000}
	ctx := ctxT(t)

	// Control: the same chip and job, uninterrupted.
	ctrlSrv, ctrl := startServer(t, Config{DataDir: t.TempDir(), CheckpointEvery: 4})
	if _, err := ctrl.CreateTenant(ctx, "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.CreateChip(ctx, "acme", spec); err != nil {
		t.Fatal(err)
	}
	cj, err := ctrl.SubmitJob(ctx, "acme", job)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctrl.WaitJob(ctx, "acme", cj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want.State != api.JobDone || !want.Result.Success {
		t.Fatalf("control run = %+v", want)
	}
	wantState, err := ctrl.ChipHealth(ctx, "acme", "c1")
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, ctrlSrv)

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
	if *got.Result != *want.Result {
		t.Fatalf("resumed result diverged:\n got %+v\nwant %+v", *got.Result, *want.Result)
	}
	gotState, err := c2.ChipHealth(ctx, "acme", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatalf("final chip state diverged after resume (%d vs %d bytes)", len(gotState), len(wantState))
	}
}
