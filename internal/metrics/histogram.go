package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of power-of-two buckets a Histogram carries.
// Bucket 0 holds values ≤ 1 ns; bucket i holds values in (2^(i-1), 2^i] ns;
// the last bucket is open-ended. 40 buckets cover up to ~2^39 ns ≈ 9 min,
// far beyond any per-op latency the runtime measures.
const HistBuckets = 40

// Histogram is a lock-free latency histogram with power-of-two bucket
// boundaries, designed for the detection hot path: Observe costs a handful of
// uncontended atomic adds and never allocates. The zero value is ready; all
// methods are safe for concurrent use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [HistBuckets]atomic.Uint64

	// exemplar is the decision-trace ID of a recent notable observation (the
	// runtime stamps the trace of each alert-raising op), correlating the
	// latency distribution with a retained trace. A pointer swap keeps reads
	// and writes lock-free.
	exemplar atomic.Pointer[string]
}

// SetExemplar attaches a trace ID to the histogram as its latest exemplar;
// empty IDs (tracing disabled) are ignored.
func (h *Histogram) SetExemplar(traceID string) {
	if traceID == "" {
		return
	}
	h.exemplar.Store(&traceID)
}

// bucketOf maps a value (nanoseconds) to its bucket index: the number of bits
// needed to represent it, clamped to the open-ended last bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // v ≤ 2^b, v > 2^(b-1)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe folds one duration (nanoseconds; negatives clamp to zero) into the
// histogram.
func (h *Histogram) Observe(nanos int64) {
	if nanos < 0 {
		nanos = 0
	}
	h.count.Add(1)
	h.sum.Add(nanos)
	for {
		cur := h.max.Load()
		if nanos <= cur || h.max.CompareAndSwap(cur, nanos) {
			break
		}
	}
	h.buckets[bucketOf(nanos)].Add(1)
}

// ObserveN folds n observations of the same duration into the histogram with
// one set of atomic updates — the observe path attributes each call of an op
// its mean per-call share this way instead of issuing n Observes.
func (h *Histogram) ObserveN(nanos int64, n uint64) {
	if n == 0 {
		return
	}
	if nanos < 0 {
		nanos = 0
	}
	h.count.Add(n)
	h.sum.Add(nanos * int64(n))
	for {
		cur := h.max.Load()
		if nanos <= cur || h.max.CompareAndSwap(cur, nanos) {
			break
		}
	}
	h.buckets[bucketOf(nanos)].Add(n)
}

// Snapshot copies the histogram. Buckets are each read atomically; the whole
// is not one atomic cut, which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	if p := h.exemplar.Load(); p != nil {
		s.Exemplar = *p
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Count and Sum aggregate every observed value; Max is the largest one.
	Count uint64
	Sum   int64
	Max   int64
	// Buckets[i] counts values in (BucketBound(i-1), BucketBound(i)].
	Buckets [HistBuckets]uint64
	// Exemplar is the trace ID of the latest notable observation, empty when
	// tracing is off or nothing notable has been observed yet.
	Exemplar string `json:"exemplar,omitempty"`
}

// BucketBound returns the inclusive upper bound of bucket i in nanoseconds;
// the last bucket is open-ended (+Inf).
func BucketBound(i int) float64 {
	if i >= HistBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(1) << uint(i))
}

// Mean returns the average observed value, 0 before any observation.
func (s HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / int64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in nanoseconds by locating
// the bucket holding the target rank and interpolating linearly inside it.
// The estimate is clamped to Max, so Quantile(1) is exact.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := 0.0
			if i > 0 {
				lo = float64(int64(1) << uint(i-1))
			}
			hi := BucketBound(i)
			if math.IsInf(hi, 1) {
				hi = float64(s.Max)
			}
			v := int64(lo + (hi-lo)*(rank-cum)/float64(n))
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
	}
	return s.Max
}
