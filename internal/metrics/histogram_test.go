package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the index/bounds inverse: every bucket's lo and
// hi map back to it, hi+1 maps to the next, and widths respect the
// 1/subCount relative-error contract.
func TestBucketRoundTrip(t *testing.T) {
	for idx := 0; idx < numBuckets; idx++ {
		lo, hi := bucketRange(idx)
		if got := bucketIndex(lo); got != idx {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, idx)
		}
		if got := bucketIndex(hi); got != idx {
			t.Fatalf("bucketIndex(hi=%d) = %d, want %d", hi, got, idx)
		}
		if idx < numBuckets-1 && hi != math.MaxInt64 {
			if got := bucketIndex(hi + 1); got != idx+1 {
				t.Fatalf("bucketIndex(hi+1=%d) = %d, want %d", hi+1, got, idx+1)
			}
		}
		if lo >= subCount {
			if width := hi - lo + 1; width > lo/subCount {
				t.Fatalf("bucket %d [%d,%d] width %d exceeds lo/subCount bound", idx, lo, hi, width)
			}
		}
	}
	if got := bucketIndex(math.MaxInt64); got != numBuckets-1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want %d", got, numBuckets-1)
	}
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0 (negative clamp)", got)
	}
}

// TestQuantileAccuracy compares histogram quantiles against exact sorted
// order statistics on distributions shaped like real latencies: the
// histogram's answer must bracket the exact one within the log-linear
// relative-error bound.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		// log-uniform over ~100ns..100ms, the server latency shape
		"loguniform": func() int64 { return int64(math.Exp(rng.Float64()*13.8 + 4.6)) },
		// heavy-tailed: mostly small with rare large spikes
		"spiky": func() int64 {
			if rng.Intn(100) == 0 {
				return int64(rng.Intn(1e9))
			}
			return int64(500 + rng.Intn(2000))
		},
		"uniform-small": func() int64 { return int64(rng.Intn(64)) },
	}
	for name, gen := range dists {
		h := NewHistogram()
		vals := make([]int64, 20000)
		for i := range vals {
			vals[i] = gen()
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		if s.Count() != uint64(len(vals)) {
			t.Fatalf("%s: count %d, want %d", name, s.Count(), len(vals))
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(q * float64(len(vals)))
			if rank > 0 {
				rank--
			}
			exact := vals[rank]
			got := s.Quantile(q)
			// got is the upper bound of exact's bucket: never below exact,
			// and at most one bucket width (lo/subCount, or the exact
			// buckets' width of 0) above it.
			if got < exact {
				t.Errorf("%s: q%.3f = %d below exact %d", name, q, got, exact)
			}
			slack := exact/subCount + 1
			if got > exact+slack {
				t.Errorf("%s: q%.3f = %d exceeds exact %d by more than %d", name, q, got, exact, slack)
			}
		}
	}
}

// TestQuantileEdgeCases covers the empty and degenerate snapshots.
func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Max() != 0 {
		t.Fatal("empty snapshot must report zeros")
	}
	h.Record(42)
	s = h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); got != 42 {
			t.Fatalf("single-value Quantile(%v) = %d, want 42", q, got)
		}
	}
	if s.Max() != 42 {
		t.Fatalf("single-value max = %d, want 42", s.Max())
	}
	h.Record(math.MaxInt64)
	if got := h.Snapshot().Max(); got != math.MaxInt64 {
		t.Fatalf("Max after MaxInt64 record = %d", got)
	}
}

// TestMergeAssociativity pins that snapshots merge associatively and
// commutatively, so per-worker histograms combine into one distribution no
// matter the fold order.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() *Histogram {
		h := NewHistogram()
		for i := 0; i < 5000; i++ {
			h.Record(int64(rng.Intn(1 << 30)))
		}
		return h
	}
	a, b, c := mk(), mk(), mk()

	// (a+b)+c
	left := a.Snapshot()
	left.Merge(b.Snapshot())
	left.Merge(c.Snapshot())
	// a+(b+c)
	bc := b.Snapshot()
	bc.Merge(c.Snapshot())
	right := a.Snapshot()
	right.Merge(bc)
	// c+b+a
	rev := c.Snapshot()
	rev.Merge(b.Snapshot())
	rev.Merge(a.Snapshot())

	for _, o := range []*Snapshot{right, rev} {
		if left.Total != o.Total || left.Sum != o.Sum {
			t.Fatalf("merge totals disagree: %d/%d vs %d/%d", left.Total, left.Sum, o.Total, o.Sum)
		}
		for i := range left.Counts {
			if left.Counts[i] != o.Counts[i] {
				t.Fatalf("merge bucket %d disagrees: %d vs %d", i, left.Counts[i], o.Counts[i])
			}
		}
	}
}

// TestConcurrentRecord hammers one histogram from many goroutines; the
// count and sum must balance exactly. Run under -race in CI, this is also
// the data-race proof for the lock-free Record.
func TestConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const workers, perWorker = 8, 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(int64(w*1000 + i%997))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count() != workers*perWorker {
		t.Fatalf("count %d, want %d", s.Count(), workers*perWorker)
	}
	var wantSum int64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantSum += int64(w*1000 + i%997)
		}
	}
	if s.Sum != wantSum {
		t.Fatalf("sum %d, want %d", s.Sum, wantSum)
	}
}

// TestStripedCounter exercises stripe selection and concurrent adds.
func TestStripedCounter(t *testing.T) {
	c := NewStriped(3) // rounds to 4 stripes
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != 80000 {
		t.Fatalf("striped load %d, want 80000", got)
	}
	var pc Counter
	pc.Add(3)
	pc.Inc()
	if pc.Load() != 4 {
		t.Fatalf("counter = %d, want 4", pc.Load())
	}
}

// TestRecordAllocs pins the hot-path contract: Record, RecordSince, and
// striped counter adds must not touch the heap.
func TestRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is checked in non-race runs")
	}
	h := NewHistogram()
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(1234) }); allocs != 0 {
		t.Errorf("Record allocs/op = %v, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.RecordSince(time.Now()) }); allocs != 0 {
		t.Errorf("RecordSince allocs/op = %v, want 0", allocs)
	}
	c := NewStriped(4)
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc(2) }); allocs != 0 {
		t.Errorf("Striped.Inc allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

func BenchmarkRecordParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			v++
			h.Record(v)
		}
	})
}
