package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanEvent is one line of the JSONL trace stream: a start event carries
// the span's name and parent id, an end event carries the duration. Span
// ids are unique within a Tracer and start at 1; parent 0 means a root
// span. Timestamps are Unix nanoseconds, so events from different
// processes can be merged on one axis.
type SpanEvent struct {
	Ev     string `json:"ev"` // "start" or "end"
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name,omitempty"`
	TNs    int64  `json:"t_ns"`
	DurNs  int64  `json:"dur_ns,omitempty"`
}

// Tracer writes span start/end events as JSON Lines. It is safe for
// concurrent use: event encoding happens under a mutex, while span-id
// allocation is a lone atomic so span creation does not serialize on the
// writer lock.
type Tracer struct {
	nextID atomic.Uint64

	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewTracer returns a tracer emitting JSONL to w. Call Flush before the
// underlying writer is closed.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{bw: bw, enc: json.NewEncoder(bw)}
}

// Flush drains buffered events to the underlying writer and returns the
// first write error encountered so far.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

func (t *Tracer) emit(ev SpanEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(ev); err != nil {
		t.err = err
	}
}

// Span is one traced interval. A nil *Span is a valid no-op span — every
// method tolerates it — so instrumented code can call telemetry.StartSpan
// unconditionally and pay a single atomic load when tracing is off.
type Span struct {
	tracer *Tracer
	id     uint64
	parent uint64
	start  time.Time
}

// Start opens a root span.
func (t *Tracer) Start(name string) *Span { return t.start(name, 0) }

func (t *Tracer) start(name string, parent uint64) *Span {
	s := &Span{tracer: t, id: t.nextID.Add(1), parent: parent, start: time.Now()}
	t.emit(SpanEvent{Ev: "start", ID: s.id, Parent: parent, Name: name, TNs: s.start.UnixNano()})
	return s
}

// Child opens a span nested under s. On a nil span it returns nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(name, s.id)
}

// End closes the span, emitting its duration. No-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tracer.emit(SpanEvent{Ev: "end", ID: s.id, TNs: now.UnixNano(), DurNs: now.Sub(s.start).Nanoseconds()})
}

// active is the process-wide tracer used by instrumented packages; nil
// (stored as a typed nil check in StartSpan) means tracing is off.
var active atomic.Pointer[Tracer]

// SetTracer installs (or, with nil, removes) the process-wide tracer that
// StartSpan draws from. Typically called once at startup by a -trace flag.
func SetTracer(t *Tracer) { active.Store(t) }

// StartSpan opens a root span on the process-wide tracer, returning nil
// (a no-op span) when tracing is off.
func StartSpan(name string) *Span {
	t := active.Load()
	if t == nil {
		return nil
	}
	return t.Start(name)
}
