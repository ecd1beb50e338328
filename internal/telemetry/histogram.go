package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets. Bucket i of a histogram
// with upper bounds b₀ < b₁ < … < bₙ₋₁ counts observations v ≤ bᵢ (and
// > bᵢ₋₁); one implicit overflow bucket counts v > bₙ₋₁. Observation is a
// single atomic add on the bucket plus atomic updates of the running count
// and sum, so concurrent observers never block each other.
//
// A Snapshot taken while observers are running is internally consistent per
// field but the buckets, count and sum may be skewed by a few in-flight
// observations; for the operational metrics here that is the right
// trade-off.
type Histogram struct {
	bounds  []float64      // sorted upper bounds; len ≥ 1
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// DurationBuckets are the default bounds for nanosecond timings, spanning
// 1 µs to 10 s in decades with a 3× midpoint each decade.
var DurationBuckets = []float64{
	1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 3e8, 1e9, 3e9, 1e10,
}

// CountBuckets are the default bounds for small cardinalities (sweeps per
// solve, cycles per operation, states per model).
var CountBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
}

// NewHistogram returns a histogram with the given bucket upper bounds
// (sorted and deduplicated; DurationBuckets when none are given). Bounds
// must be finite — the overflow bucket is implicit.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	sorted := make([]float64, len(bounds))
	copy(sorted, bounds)
	sort.Float64s(sorted)
	dedup := sorted[:0]
	for _, b := range sorted {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			panic("telemetry: histogram bounds must be finite")
		}
		if len(dedup) == 0 || b > dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{bounds: dedup, buckets: make([]atomic.Int64, len(dedup)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// bucketOf returns the index of the bucket counting v: the first bound
// ≥ v, or the overflow bucket.
func (h *Histogram) bucketOf(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket, the standard fixed-bucket estimate: the
// first bucket interpolates from 0, the overflow bucket is clamped to the
// largest bound. An empty histogram returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				// Overflow bucket: no upper bound to interpolate toward.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is the JSON form of a histogram: the bucket upper
// bounds, the per-bucket counts (one longer than bounds — the last entry is
// the overflow bucket), and the running count and sum.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}
