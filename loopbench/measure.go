package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"meda/internal/sim"
	"meda/internal/telemetry"
)

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// processSample is a point-in-time reading of the process's resource
// counters; the load phase is measured as the difference of two samples.
type processSample struct {
	wall    time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // runtime.MemStats.TotalAlloc
	gcs     uint32
	gcPause uint64 // ns
	steal   int64  // /proc/stat steal ticks, -1 when unreadable
}

func sampleProcess() processSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processSample{
		wall:    time.Now(),
		cpu:     processCPU(),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: ms.PauseTotalNs,
		steal:   stealTicks(),
	}
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stealTicks reads the machine-wide steal time from /proc/stat. It is a
// diagnostic only: a run is never dropped for it.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// counterNames are the telemetry.Default() counters the benchmark reads as
// before/after deltas around the load phase.
var counterNames = []string{
	"sched.library.hits",
	"sched.cache.raw_hits",
	"sched.cache.canonical_hits",
	"sched.synth.online",
	"synth.syntheses",
	"synth.construct_ns",
	"synth.solve_ns",
	"mdp.vi.solves",
	"mdp.vi.sweeps",
	"mdp.prob1e.ns",
}

// telemetrySample is a reading of the counters above plus the model-size
// histogram's count and sum.
type telemetrySample struct {
	counters    map[string]int64
	statesCount int64
	statesSum   float64
}

func sampleTelemetry() telemetrySample {
	reg := telemetry.Default()
	s := telemetrySample{counters: make(map[string]int64, len(counterNames))}
	for _, n := range counterNames {
		s.counters[n] = reg.Counter(n).Value()
	}
	h := reg.Histogram("synth.model_states")
	s.statesCount, s.statesSum = h.Count(), h.Sum()
	return s
}

// sub returns the delta s − base.
func (s telemetrySample) sub(base telemetrySample) telemetrySample {
	d := telemetrySample{counters: make(map[string]int64, len(s.counters))}
	for n, v := range s.counters {
		d.counters[n] = v - base.counters[n]
	}
	d.statesCount = s.statesCount - base.statesCount
	d.statesSum = s.statesSum - base.statesSum
	return d
}

func (s *telemetrySample) add(o telemetrySample) {
	if s.counters == nil {
		s.counters = make(map[string]int64, len(o.counters))
	}
	for n, v := range o.counters {
		s.counters[n] += v
	}
	s.statesCount += o.statesCount
	s.statesSum += o.statesSum
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest accumulates every job's simulated statistics, in job order, into
// one FNV-1a hash: two runs simulated the same thing iff their digests match.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		d.h.Write(b[:])
	}
}

func (d *digest) str(s string) {
	d.ints(len(s))
	d.h.Write([]byte(s))
}

// exec folds one sim.Execution into the digest, field by field.
func (d *digest) exec(e sim.Execution) {
	success := 0
	if e.Success {
		success = 1
	}
	d.ints(success, e.Cycles, e.Stalls, e.Resyntheses, e.JobsCompleted,
		e.Rollbacks, e.RedoneOps, e.Divergences, e.DegradedJobs,
		e.HazardViolations, e.Deadlocks, e.SerializedOps,
		e.DispenseDeferrals, e.PeakDroplets)
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
