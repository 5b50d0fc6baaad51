// Package bench drives every index implementation through the public
// index.Index interface and regenerates the paper's figures as text tables,
// which cmd/benchfig prints. Kind dispatch lives in the index registry;
// this package only shapes workloads.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/index"
	"repro/internal/pmem"
)

// AllSingleThreaded is the series set of Figures 4–6.
var AllSingleThreaded = []index.Kind{index.FastFair, index.FPTree, index.WBTree, index.WORT, index.SkipList}

// AllConcurrent is the series set of Figure 7.
var AllConcurrent = []index.Kind{index.FastFair, index.FastFairLeafLock, index.FPTree, index.BLink, index.SkipList}

// Keys returns n distinct-with-high-probability uniform random keys.
func Keys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		if keys[i] == 0 {
			keys[i] = 1
		}
	}
	return keys
}

// Load inserts the keys with the key as value (values are therefore unique
// and non-zero, satisfying the InlineValues contract), returning elapsed
// time.
func Load(ix index.Index, th *pmem.Thread, keys []uint64) (time.Duration, error) {
	t0 := time.Now()
	for _, k := range keys {
		if err := ix.Insert(th, k, k); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// SearchAll probes every key, returning elapsed time; it fails fast on a
// wrong result so benchmarks double as correctness checks.
func SearchAll(ix index.Index, th *pmem.Thread, keys []uint64) (time.Duration, error) {
	t0 := time.Now()
	for _, k := range keys {
		v, ok := ix.Get(th, k)
		if !ok || v != k {
			return 0, fmt.Errorf("bench: Get(%d) = (%d,%v)", k, v, ok)
		}
	}
	return time.Since(t0), nil
}

// usPerOp formats a per-op latency in microseconds.
func usPerOp(d time.Duration, ops int) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/float64(ops))
}
