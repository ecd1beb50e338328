package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// decodeEvents parses a JSONL trace back into events, failing the test on
// any malformed line.
func decodeEvents(t *testing.T, data []byte) []SpanEvent {
	t.Helper()
	var evs []SpanEvent
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var ev SpanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not parseable JSON: %v\n%s", i+1, err, line)
		}
		evs = append(evs, ev)
	}
	return evs
}

func TestTracerSpanNesting(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.Start("synthesize")
	child := root.Child("model_build")
	child.End()
	solve := root.Child("solve")
	solve.End()
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	evs := decodeEvents(t, buf.Bytes())
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6: %+v", len(evs), evs)
	}
	if evs[0].Ev != "start" || evs[0].Name != "synthesize" || evs[0].Parent != 0 {
		t.Fatalf("root start event wrong: %+v", evs[0])
	}
	rootID := evs[0].ID
	if rootID == 0 {
		t.Fatal("span ids must start at 1")
	}
	if evs[1].Name != "model_build" || evs[1].Parent != rootID {
		t.Fatalf("child not parented to root: %+v", evs[1])
	}
	if evs[2].Ev != "end" || evs[2].ID != evs[1].ID {
		t.Fatalf("child end mismatched: %+v", evs[2])
	}
	if evs[3].Name != "solve" || evs[3].Parent != rootID {
		t.Fatalf("second child not parented to root: %+v", evs[3])
	}
	last := evs[5]
	if last.Ev != "end" || last.ID != rootID || last.DurNs < 0 {
		t.Fatalf("root end event wrong: %+v", last)
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := tr.Start("work")
				s.Child("inner").End()
				s.End()
			}
		}()
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	evs := decodeEvents(t, buf.Bytes())
	if len(evs) != workers*per*4 {
		t.Fatalf("got %d events, want %d", len(evs), workers*per*4)
	}
	// Every id is unique among starts and every end matches a start.
	started := map[uint64]bool{}
	for _, ev := range evs {
		if ev.Ev == "start" {
			if started[ev.ID] {
				t.Fatalf("duplicate span id %d", ev.ID)
			}
			started[ev.ID] = true
		}
	}
	for _, ev := range evs {
		if ev.Ev == "end" && !started[ev.ID] {
			t.Fatalf("end without start: %+v", ev)
		}
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.End()
	if c := s.Child("x"); c != nil {
		t.Fatal("nil span's child must be nil")
	}
}

func TestGlobalTracer(t *testing.T) {
	if StartSpan("off") != nil {
		t.Fatal("StartSpan must return nil with no tracer installed")
	}
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	SetTracer(tr)
	defer SetTracer(nil)
	sp := StartSpan("on")
	if sp == nil {
		t.Fatal("StartSpan returned nil with a tracer installed")
	}
	sp.End()
	SetTracer(nil)
	if StartSpan("off-again") != nil {
		t.Fatal("StartSpan must return nil after the tracer is removed")
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	evs := decodeEvents(t, buf.Bytes())
	if len(evs) != 2 || evs[0].Name != "on" {
		t.Fatalf("events %+v", evs)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	return 0, &json.UnsupportedValueError{}
}

func TestTracerWriteErrorSticks(t *testing.T) {
	tr := NewTracer(&failWriter{})
	// Overrun the bufio buffer so the underlying write fails.
	for i := 0; i < 10000; i++ {
		tr.Start("x").End()
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("expected a write error")
	}
}
