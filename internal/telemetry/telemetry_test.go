package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter reads %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter reads %d, want 42", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge reads %v, want 2.5", g.Value())
	}
	g.Add(-1.25)
	if g.Value() != 1.25 {
		t.Fatalf("gauge reads %v, want 1.25", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter reads %d after concurrent increments, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge reads %v after concurrent adds, want 8000", g.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name resolved to two counters")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("same name resolved to two gauges")
	}
	h1 := r.Histogram("h", 1, 2, 3)
	h2 := r.Histogram("h", 10, 20) // later bounds ignored: first registration wins
	if h1 != h2 {
		t.Fatal("same name resolved to two histograms")
	}
	if got := len(h1.Snapshot().Bounds); got != 3 {
		t.Fatalf("histogram has %d bounds, want the first registration's 3", got)
	}
	if got := r.Snapshot().Counters; !reflect.DeepEqual(got, map[string]int64{"a": 0}) {
		t.Fatalf("counters = %v", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("synth.syntheses").Add(7)
	r.Gauge("pool.queue_depth").Set(3)
	h := r.Histogram("vi.sweeps", 10, 100, 1000)
	h.Observe(4)
	h.Observe(40)
	h.Observe(1e9) // overflow

	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("snapshot did not round-trip:\n got %+v\nwant %+v", back, snap)
	}
	if back.Counters["synth.syntheses"] != 7 {
		t.Fatalf("counter lost in round trip: %+v", back)
	}
	hs := back.Histograms["vi.sweeps"]
	if hs.Count != 3 || len(hs.Counts) != len(hs.Bounds)+1 || hs.Counts[len(hs.Counts)-1] != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	snap := r.Snapshot()
	c.Add(10)
	if snap.Counters["x"] != 1 {
		t.Fatalf("snapshot mutated after the fact: %d", snap.Counters["x"])
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("mdp.vi.sweeps").Add(123)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Counters["mdp.vi.sweeps"] != 123 {
		t.Fatalf("served snapshot %+v", snap)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	// The default registry is process-global; use names no instrumented
	// package touches.
	C("telemetry_test.counter").Add(2)
	G("telemetry_test.gauge").Set(1.5)
	H("telemetry_test.hist", 1, 2).Observe(1)
	snap := Default().Snapshot()
	if snap.Counters["telemetry_test.counter"] != 2 {
		t.Fatalf("default counter = %d", snap.Counters["telemetry_test.counter"])
	}
	if snap.Gauges["telemetry_test.gauge"] != 1.5 {
		t.Fatalf("default gauge = %v", snap.Gauges["telemetry_test.gauge"])
	}
	if snap.Histograms["telemetry_test.hist"].Count != 1 {
		t.Fatalf("default histogram = %+v", snap.Histograms["telemetry_test.hist"])
	}
}
