package telemetry

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// approx compares within a small absolute tolerance (quantile estimates are
// linear interpolations, not exact order statistics).
func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHistogramBucketBoundaries(t *testing.T) {
	tests := []struct {
		name   string
		bounds []float64
		obs    []float64
		counts []int64 // per bucket, overflow last
	}{
		{
			name:   "values land in the first bucket with bound >= v",
			bounds: []float64{10, 20, 30},
			obs:    []float64{1, 10, 11, 20, 29, 30},
			counts: []int64{2, 2, 2, 0},
		},
		{
			name:   "exact boundary counts into the lower bucket",
			bounds: []float64{1, 2},
			obs:    []float64{1, 1, 2},
			counts: []int64{2, 1, 0},
		},
		{
			name:   "overflow bucket catches everything above the top bound",
			bounds: []float64{5},
			obs:    []float64{5.0001, 1e12, math.Inf(1)},
			counts: []int64{0, 3},
		},
		{
			name:   "negative and zero observations land in the first bucket",
			bounds: []float64{10, 20},
			obs:    []float64{-5, 0},
			counts: []int64{2, 0, 0},
		},
		{
			name:   "unsorted duplicate bounds are sorted and deduplicated",
			bounds: []float64{30, 10, 20, 10},
			obs:    []float64{15, 25, 5},
			counts: []int64{1, 1, 1, 0},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.bounds...)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			s := h.Snapshot()
			if !reflect.DeepEqual(s.Counts, tc.counts) {
				t.Fatalf("bucket counts = %v, want %v (bounds %v)", s.Counts, tc.counts, s.Bounds)
			}
			if s.Count != int64(len(tc.obs)) {
				t.Fatalf("count = %d, want %d", s.Count, len(tc.obs))
			}
		})
	}
}

func TestHistogramSum(t *testing.T) {
	h := NewHistogram(1, 10)
	for _, v := range []float64{0.5, 2.5, 100} {
		h.Observe(v)
	}
	if !approx(h.Sum(), 103) {
		t.Fatalf("sum = %v, want 103", h.Sum())
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h := NewHistogram(1, 2, 3)
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty snapshot %+v", s)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	h := NewHistogram() // DurationBuckets
	h.Observe(2e6)
	s := h.Snapshot()
	if !reflect.DeepEqual(s.Bounds, DurationBuckets) {
		t.Fatalf("default bounds = %v", s.Bounds)
	}
	// 2 ms lands in the (1e6, 3e6] bucket.
	for i, b := range s.Bounds {
		want := int64(0)
		if b == 3e6 {
			want = 1
		}
		if s.Counts[i] != want {
			t.Fatalf("bucket %v holds %d, want %d", b, s.Counts[i], want)
		}
	}
}

func TestHistogramRejectsNonFiniteBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on +Inf bound")
		}
	}()
	NewHistogram(1, math.Inf(1))
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(CountBuckets...)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 7))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	perWorker := 0
	for i := 0; i < per; i++ {
		perWorker += i % 7
	}
	wantSum := float64(workers * perWorker)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	total := int64(0)
	for _, n := range h.Snapshot().Counts {
		total += n
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
}
