package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Job    int    `json:"job"`    // -1 outside any job
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// job is the span of the job currently executing on the single
	// simulation goroutine (direct workloads); Route spans hang off it.
	job int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), job: -1} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAt closes span id at an instant observed earlier (an event's receipt).
func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = at.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// setJob records the span of the job now executing (direct workloads).
func (t *tracer) setJob(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.job = id
	t.mu.Unlock()
}

func (t *tracer) currentJob() (span, job int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.job < 0 {
		return -1, -1
	}
	return t.job, t.spans[t.job].Job
}

// durations returns the durations, in milliseconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribute splits the wall interval of span root among layers. Every
// instant goes to the first layer in priority (deepest first) that has a
// span open at that instant; instants no layer covers are unattributed.
// For nested spans on one goroutine this is exactly each layer's self time
// (its duration minus the time its children cover); where spans of one
// layer overlap in time (fleet jobs in flight together), the layer is
// charged for the union, so the parts always add up to the root's wall time.
// layerOf maps span names to layers; names it does not list are ignored.
func (t *tracer) attribute(root int, layerOf map[string]string, priority []string) (self map[string]float64, unattributed float64) {
	rank := make(map[string]int, len(priority))
	for i, l := range priority {
		rank[l] = i
	}
	type edge struct {
		at    int64
		layer int
		delta int
	}
	r := t.spans[root]
	var edges []edge
	for _, s := range t.spans {
		l, ok := layerOf[s.Name]
		if !ok || s.End < 0 {
			continue
		}
		lo, hi := max(s.Start, r.Start), min(s.End, r.End)
		if lo >= hi {
			continue
		}
		edges = append(edges, edge{lo, rank[l], +1}, edge{hi, rank[l], -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	open := make([]int, len(priority))
	ns := make([]int64, len(priority))
	var none int64
	prev := r.Start
	charge := func(until int64) {
		dt := until - prev
		if dt <= 0 {
			return
		}
		for i, n := range open {
			if n > 0 {
				ns[i] += dt
				return
			}
		}
		none += dt
	}
	for _, e := range edges {
		charge(e.at)
		prev = e.at
		open[e.layer] += e.delta
	}
	charge(r.End)
	self = make(map[string]float64, len(priority))
	for i, l := range priority {
		self[l] = float64(ns[i]) / 1e9
	}
	return self, float64(none) / 1e9
}
