package main

import (
	"math"
	"reflect"
	"testing"

	"meda/internal/sched"
	"meda/internal/sim"
)

// The wrapper must expose exactly the optional router interfaces the
// adaptive router does, so the simulator's type probes see the same router.
func TestTimedRouterMethodSet(t *testing.T) {
	var ad any = &sched.Adaptive{}
	var tr any = &timedRouter{Adaptive: &sched.Adaptive{}}
	probes := map[string]func(any) bool{
		"Router":            func(v any) bool { _, ok := v.(sched.Router); return ok },
		"Prefetcher":        func(v any) bool { _, ok := v.(sched.Prefetcher); return ok },
		"RegionInvalidator": func(v any) bool { _, ok := v.(sched.RegionInvalidator); return ok },
		"FaultAware":        func(v any) bool { _, ok := v.(sched.FaultAware); return ok },
		"DegradedRouter":    func(v any) bool { _, ok := v.(sched.DegradedRouter); return ok },
	}
	for name, probe := range probes {
		if probe(ad) != probe(tr) {
			t.Errorf("%s: *sched.Adaptive %v, *timedRouter %v", name, probe(ad), probe(tr))
		}
	}
}

// executeFirst runs the instance's first n jobs. With unwrap, every runner
// routes through the bare *sched.Adaptive instead of the timing wrapper.
func executeFirst(t *testing.T, in *directInstance, n int, unwrap bool) []sim.Execution {
	t.Helper()
	var out []sim.Execution
	for _, j := range in.jobs[:n] {
		if w, ok := j.runner.Router.(*timedRouter); ok && unwrap {
			j.runner.Router = w.Adaptive
		}
		e, err := j.runner.Execute(j.plan)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// A traced, wrapped run and an unwrapped run of one wear seed and one crowd
// seed simulate identically.
func TestWrappedRunMatchesUnwrapped(t *testing.T) {
	cases := []struct {
		name  string
		setup func(uint64, *tracer) (*directInstance, setupTimes, error)
		jobs  int
	}{
		{"wear", setupWear, wearReuses + 4}, // one chip's full reuse sequence and the next chip's start
		{"crowd", setupCrowd, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const seed = 3
			tr := newTracer()
			wrapped, _, err := c.setup(seed, tr)
			if err != nil {
				t.Fatal(err)
			}
			plain, _, err := c.setup(seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := executeFirst(t, wrapped, c.jobs, false)
			want := executeFirst(t, plain, c.jobs, true)
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("job %d: wrapped %+v, unwrapped %+v", i, got[i], want[i])
					}
				}
			}
			if len(tr.durations(spanRoute)) == 0 {
				t.Fatal("the wrapped run recorded no Route spans")
			}
		})
	}
}

// attribute charges each instant to the deepest open layer: self time for
// nested spans, the union for overlapping ones, the rest unattributed.
func TestAttribute(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: spanWorkload, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanExecute, Start: 10, End: 60},
		{ID: 2, Parent: 1, Name: spanRoute, Start: 20, End: 30},
		{ID: 3, Parent: 1, Name: spanRoute, Start: 40, End: 45},
		{ID: 4, Parent: 0, Name: spanExecute, Start: 50, End: 90},  // overlaps span 1
		{ID: 5, Parent: 0, Name: spanExecute, Start: 95, End: 120}, // clipped to the root
	}}
	self, none := tr.attribute(0, directLayers, []string{"sched", "sim"})
	want := map[string]float64{"sched": 15e-9, "sim": 70e-9}
	for l, v := range want {
		if math.Abs(self[l]-v) > 1e-15 {
			t.Errorf("%s self = %g, want %g", l, self[l], v)
		}
	}
	if math.Abs(none-15e-9) > 1e-15 {
		t.Errorf("unattributed = %g, want %g", none, 15e-9)
	}
}
