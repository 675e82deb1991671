package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestBucketOfBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, // bucket 0 holds ≤ 1ns
		{2, 1},         // (1, 2]
		{3, 2}, {4, 2}, // (2, 4]
		{5, 3}, {8, 3}, // (4, 8]
		{1024, 10}, // exact power lands in its own bucket
		{1025, 11}, // one past the power spills to the next
		{1 << 38, 38},
		{1 << 45, HistBuckets - 1}, // clamps into the open-ended bucket
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucketed value must respect its bound: v ≤ BucketBound(bucketOf(v)).
	for _, v := range []int64{1, 2, 3, 7, 100, 999, 4096, 1 << 20, 1 << 39} {
		b := bucketOf(v)
		if hi := BucketBound(b); float64(v) > hi {
			t.Errorf("value %d landed in bucket %d with bound %g", v, b, hi)
		}
		if b > 0 {
			lo := float64(int64(1) << uint(b-1))
			if float64(v) <= lo && b != HistBuckets-1 {
				t.Errorf("value %d ≤ lower bound %g of bucket %d", v, lo, b)
			}
		}
	}
}

func TestBucketBound(t *testing.T) {
	if got := BucketBound(0); got != 1 {
		t.Errorf("BucketBound(0) = %g, want 1", got)
	}
	if got := BucketBound(10); got != 1024 {
		t.Errorf("BucketBound(10) = %g, want 1024", got)
	}
	if !math.IsInf(BucketBound(HistBuckets-1), 1) {
		t.Error("last bucket bound must be +Inf")
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{100, 200, 300, 400, -7} { // negative clamps to 0
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 1000 {
		t.Errorf("sum = %d, want 1000", s.Sum)
	}
	if s.Max != 400 {
		t.Errorf("max = %d, want 400", s.Max)
	}
	if s.Mean() != 200 {
		t.Errorf("mean = %d, want 200", s.Mean())
	}
	var total uint64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, s.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var zero HistogramSnapshot
	if zero.Quantile(0.5) != 0 || zero.Mean() != 0 {
		t.Error("empty snapshot must report zero quantiles and mean")
	}

	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if got := s.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %d, want exact max 1000", got)
	}
	// Bucket interpolation is coarse (power-of-two bounds), so allow a factor
	// of 2 around the true rank value.
	for _, c := range []struct {
		q    float64
		true int64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}} {
		got := s.Quantile(c.q)
		if got < c.true/2 || got > c.true*2 {
			t.Errorf("Quantile(%g) = %d, want within [%d, %d]", c.q, got, c.true/2, c.true*2)
		}
	}
	// Out-of-range q clamps instead of panicking.
	if got := s.Quantile(-1); got <= 0 {
		t.Errorf("Quantile(-1) = %d, want > 0", got)
	}
	if got := s.Quantile(2); got != 1000 {
		t.Errorf("Quantile(2) = %d, want 1000", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const (
		goroutines = 8
		perG       = 10000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", s.Count, goroutines*perG)
	}
	if s.Max != goroutines*perG-1 {
		t.Errorf("max = %d, want %d", s.Max, goroutines*perG-1)
	}
}

// TestAvgAndMaxLatency pins the derived latency accessors of
// CountersSnapshot: the average over all calls and the single largest call.
func TestAvgAndMaxLatency(t *testing.T) {
	cases := []struct {
		name      string
		latencies []int64
		wantAvg   int64
		wantMax   int64
	}{
		{"no calls", nil, 0, 0},
		{"one call", []int64{250}, 250, 250},
		{"uniform", []int64{100, 100, 100}, 100, 100},
		{"spread", []int64{50, 150, 400}, 200, 400},
		{"spike dominates max not avg", []int64{10, 10, 10, 10000}, 2507, 10000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var ctr Counters
			for _, l := range c.latencies {
				ctr.AddCalls(1, l)
			}
			s := ctr.Snapshot()
			if got := s.AvgLatencyNanos(); got != c.wantAvg {
				t.Errorf("AvgLatencyNanos = %d, want %d", got, c.wantAvg)
			}
			if got := s.MaxLatencyNanos(); got != c.wantMax {
				t.Errorf("MaxLatencyNanos = %d, want %d", got, c.wantMax)
			}
			if s.Observe.Sum != s.LatencyNanos {
				t.Errorf("Observe.Sum = %d diverged from LatencyNanos = %d", s.Observe.Sum, s.LatencyNanos)
			}
			if s.Observe.Count != s.Calls {
				t.Errorf("Observe.Count = %d diverged from Calls = %d", s.Observe.Count, s.Calls)
			}
		})
	}
}

func TestCountersFlushAndSinkHistograms(t *testing.T) {
	var ctr Counters
	ctr.AddFlush(1000)
	ctr.AddFlush(3000)
	ctr.AddSinkDelivery(500)
	s := ctr.Snapshot()
	if s.Flush.Count != 2 || s.Flush.Sum != 4000 || s.Flush.Max != 3000 {
		t.Errorf("flush histogram = {count %d sum %d max %d}, want {2 4000 3000}",
			s.Flush.Count, s.Flush.Sum, s.Flush.Max)
	}
	if s.SinkDelivery.Count != 1 || s.SinkDelivery.Max != 500 {
		t.Errorf("sink histogram = {count %d max %d}, want {1 500}",
			s.SinkDelivery.Count, s.SinkDelivery.Max)
	}
}
