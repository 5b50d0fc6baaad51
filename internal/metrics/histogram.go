// Package metrics is the in-process observability layer: lock-free,
// allocation-free latency histograms and cache-line-padded counters, plus a
// Registry that exposes them as Prometheus text format — the one way a
// running server is read — and, in process, as a JSON-shaped map and
// mergeable snapshots with quantiles.
//
// The package is dependency-free and always-on by design: a Histogram's
// Record is three atomic operations on pre-allocated memory (no locks, no
// allocation, no time source), so the server and store keep their
// instrumentation enabled unconditionally and the benchmark regression gate
// doubles as the overhead proof. Reading — snapshots, quantiles, text
// exposition — is the slow path and may allocate freely.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is HDR-style log-linear: values below subCount get one
// bucket each (exact), and every power-of-two range above that is split
// into subCount linear sub-buckets, so any recorded value lands in a bucket
// whose width is at most 1/subCount of the value. Quantiles read from
// bucket upper bounds therefore carry a bounded relative error of
// 1/subCount (~3.1%), independent of the distribution, while the whole
// positive int64 range — recorded values are typically nanoseconds, but
// sizes and counts work the same — fits numBuckets fixed counters with no
// dynamic resizing (which is what keeps Record lock-free).
const (
	subBits  = 5
	subCount = 1 << subBits
	// numBuckets covers bucketIndex over all of [0, MaxInt64]: subCount
	// exact buckets plus subCount linear sub-buckets for each of the
	// 63-subBits power-of-two ranges above them.
	numBuckets = (63-subBits)*subCount + subCount
)

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	uv := uint64(v)
	k := bits.Len64(uv)
	if k <= subBits {
		return int(uv)
	}
	shift := k - subBits - 1
	return (k-subBits)*subCount + int(uv>>shift) - subCount
}

// bucketRange returns the inclusive value range [lo, hi] of bucket idx —
// the inverse of bucketIndex.
func bucketRange(idx int) (lo, hi int64) {
	if idx < subCount {
		return int64(idx), int64(idx)
	}
	shift := idx/subCount - 1
	lo = int64(subCount+idx%subCount) << shift
	return lo, lo + (int64(1) << shift) - 1
}

// Histogram is a fixed-size log-linear histogram safe for concurrent use.
// Record never blocks, never allocates, and never takes a lock; reads
// (Snapshot) observe a consistent-enough view for monitoring (individual
// bucket loads are atomic, the set of loads is not a linearizable cut).
// The zero value is NOT ready; use NewHistogram.
type Histogram struct {
	counts []atomic.Uint64
	sum    atomic.Int64
}

// NewHistogram returns an empty histogram covering [0, MaxInt64].
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, numBuckets)}
}

// Record adds one observation. Negative values clamp to 0. It is lock-free
// and allocation-free: one indexed atomic add plus one atomic add for the
// sum.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// RecordSince records the elapsed nanoseconds since start. It is the
// latency-timing convenience: `defer h.RecordSince(time.Now())` charges a
// function's duration on return without allocating.
func (h *Histogram) RecordSince(start time.Time) {
	h.Record(int64(time.Since(start)))
}

// Snapshot copies the histogram's state into a mergeable, quantile-capable
// value. It allocates; take snapshots on scrape/report paths, not hot ones.
func (h *Histogram) Snapshot() *Snapshot {
	s := &Snapshot{Counts: make([]uint64, numBuckets), Sum: h.sum.Load()}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Total += c
	}
	return s
}

// Snapshot is a point-in-time copy of a Histogram. Snapshots merge
// associatively and commutatively: bucket counts and sums simply add,
// so per-worker histograms combine into one distribution with no loss
// beyond the shared bucket granularity.
type Snapshot struct {
	Counts []uint64
	Total  uint64
	Sum    int64
}

// Merge adds o into s.
func (s *Snapshot) Merge(o *Snapshot) {
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Total += o.Total
	s.Sum += o.Sum
}

// Count returns the number of recorded observations.
func (s *Snapshot) Count() uint64 { return s.Total }

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of the
// recorded values: the upper bound of the bucket holding the rank-⌈q·n⌉
// observation, which exceeds the exact order statistic by at most a factor
// of 1/subCount (~3.1%). An empty snapshot returns 0.
func (s *Snapshot) Quantile(q float64) int64 {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Total))
	if rank > 0 {
		rank-- // 1-based rank of the order statistic, clamped into range
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum > rank {
			_, hi := bucketRange(i)
			return hi
		}
	}
	_, hi := bucketRange(numBuckets - 1)
	return hi
}

// Max returns an upper bound for the largest recorded value (the top
// nonempty bucket's upper bound), or 0 when empty.
func (s *Snapshot) Max() int64 {
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			_, hi := bucketRange(i)
			return hi
		}
	}
	return 0
}
