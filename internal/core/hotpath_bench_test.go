package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
)

// Hot-path microbenchmarks for the read path: in-node search where it
// happens (leafFind, routeChild) and the full point lookup (Get), each under
// a DRAM config (no latency charging — the pure bookkeeping cost) and a
// PM-latency config (300ns serial line reads, the paper's midpoint) — and for
// the write path that the store's churn runs, the insert/delete toggle
// (BenchmarkTreeToggle).

func hotpathConfigs() []struct {
	name string
	cfg  pmem.Config
} {
	return []struct {
		name string
		cfg  pmem.Config
	}{
		{"dram", pmem.Config{Size: 128 << 20}},
		{"pm300", pmem.Config{Size: 128 << 20, ReadLatency: 300 * time.Nanosecond}},
	}
}

// benchKeys is a deterministic splitmix64 stream (non-zero, unique w.h.p.).
func benchKeys(n int, seed uint64) []uint64 {
	keys := make([]uint64, n)
	x := seed
	for i := range keys {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		keys[i] = z | 1
	}
	return keys
}

func benchTree(b *testing.B, cfg pmem.Config, n int) (*BTree, *pmem.Thread, []uint64) {
	b.Helper()
	p := pmem.New(cfg)
	th := p.NewThread()
	tr, err := New(p, th, Options{InlineValues: true})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(n, 1)
	for _, k := range keys {
		if err := tr.Insert(th, k, k); err != nil {
			b.Fatal(err)
		}
	}
	return tr, th, keys
}

const hotpathKeys = 100000

// BenchmarkLeafFind measures the lock-free in-leaf search alone: the leaves
// are resolved up front, so each iteration is one leafFind call.
func BenchmarkLeafFind(b *testing.B) {
	for _, c := range hotpathConfigs() {
		b.Run(c.name, func(b *testing.B) {
			tr, th, keys := benchTree(b, c.cfg, hotpathKeys)
			const samples = 4096
			leaves := make([]node, samples)
			probe := make([]uint64, samples)
			for i := range leaves {
				k := keys[(i*2654435761)%len(keys)]
				leaves[i] = tr.descendToLeaf(th, k)
				probe[i] = k
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % samples
				if _, ok := tr.leafFind(th, leaves[j], probe[j]); !ok {
					b.Fatal("key missing")
				}
			}
		})
	}
}

// BenchmarkRouteChild measures lock-free internal-node routing alone, on the
// root of a tree tall enough that the root is internal.
func BenchmarkRouteChild(b *testing.B) {
	for _, c := range hotpathConfigs() {
		b.Run(c.name, func(b *testing.B) {
			tr, th, keys := benchTree(b, c.cfg, hotpathKeys)
			root := tr.root(th)
			if tr.level(th, root) == 0 {
				b.Fatal("tree has no internal nodes")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[(i*2654435761)%len(keys)]
				if tr.routeChild(th, root, k) == 0 {
					b.Fatal("routeChild returned NULL")
				}
			}
		})
	}
}

// BenchmarkTreeGet measures the full point lookup over preloaded keys.
func BenchmarkTreeGet(b *testing.B) {
	for _, c := range hotpathConfigs() {
		b.Run(c.name, func(b *testing.B) {
			tr, th, keys := benchTree(b, c.cfg, hotpathKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[(i*2654435761)%len(keys)]
				if _, ok := tr.Get(th, k); !ok {
					b.Fatal("key missing")
				}
			}
		})
	}
}

// BenchmarkGetBatch measures GetBatch per key on a 512 K-key tree, in
// batches of 1, 8 and 32. A batch of one is Get plus the batch's loop; the
// larger ones show what interleaving the descents buys once the tree no
// longer fits in cache.
func BenchmarkGetBatch(b *testing.B) {
	for _, c := range hotpathConfigs() {
		tr, th, keys := benchTree(b, c.cfg, 512<<10)
		for _, n := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/batch%d", c.name, n), func(b *testing.B) {
				ls := make([]Lookup, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += n {
					for j := range ls {
						ls[j] = Lookup{Tree: tr, Th: th, Key: keys[((i+j)*2654435761)%len(keys)]}
					}
					GetBatch(ls)
					for _, l := range ls {
						if !l.Found {
							b.Fatal("key missing")
						}
					}
				}
			})
		}
	}
}

// BenchmarkTreeScan measures a 100-key range scan (leafCollect dominated).
func BenchmarkTreeScan(b *testing.B) {
	for _, c := range hotpathConfigs() {
		b.Run(c.name, func(b *testing.B) {
			tr, th, _ := benchTree(b, c.cfg, hotpathKeys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := uint64(i%64) << 58
				got := 0
				tr.Scan(th, lo, ^uint64(0), func(uint64, uint64) bool {
					got++
					return got < 100
				})
			}
		})
	}
}

// BenchmarkTreeToggle is the paper's churn on one boxed tree, the shape the
// store runs: a universe of keys, half of them present, and uniform toggles —
// delete the key if it is there, insert it if not. It reports what a toggle
// costs in the simulator's own units beside the wall clock: flushed lines
// (the value box, the commit's line, the lines of a shift into a tombstone)
// and charged reads. The universe is toggled through once before the clock
// starts, so that the leaves hold their stationary share of tombstones.
func BenchmarkTreeToggle(b *testing.B) {
	for _, c := range hotpathConfigs() {
		b.Run(c.name, func(b *testing.B) {
			p := pmem.New(c.cfg)
			th := p.NewThread()
			tr, err := New(p, th, Options{})
			if err != nil {
				b.Fatal(err)
			}
			keys := benchKeys(hotpathKeys, 3)
			present := make([]bool, len(keys))
			toggle := func(j int) {
				if present[j] {
					if !tr.Delete(th, keys[j]) {
						b.Fatal("key missing")
					}
				} else if err := tr.Insert(th, keys[j], keys[j]); err != nil {
					b.Fatal(err)
				}
				present[j] = !present[j]
			}
			for j := 0; j < len(keys); j += 2 {
				toggle(j)
			}
			pick := benchKeys(len(keys)+b.N, 4)
			for _, x := range pick[:len(keys)] {
				toggle(int(x % uint64(len(keys))))
			}
			before := th.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for _, x := range pick[len(keys):] {
				toggle(int(x % uint64(len(keys))))
			}
			b.StopTimer()
			b.ReportMetric(float64(th.Stats.FlushedLines-before.FlushedLines)/float64(b.N), "flushed-lines/op")
			b.ReportMetric(float64(th.Stats.ChargedReads-before.ChargedReads)/float64(b.N), "charged-reads/op")
		})
	}
}

// BenchmarkContendedPut hammers a deliberately small key range from a fixed
// number of writer goroutines so they collide on node latches — the
// workload the latch backoff (pmem.Thread.Latch) exists for.
func BenchmarkContendedPut(b *testing.B) {
	for _, writers := range []int{2, 8} {
		b.Run(fmt.Sprintf("writers%d", writers), func(b *testing.B) {
			p := pmem.New(pmem.Config{Size: 256 << 20})
			th := p.NewThread()
			tr, err := New(p, th, Options{InlineValues: true})
			if err != nil {
				b.Fatal(err)
			}
			const hot = 512 // keys; a handful of leaves
			for k := uint64(1); k <= hot; k++ {
				if err := tr.Insert(th, k, k); err != nil {
					b.Fatal(err)
				}
			}
			var left atomic.Int64
			left.Store(int64(b.N))
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					wth := p.NewThread()
					for {
						i := left.Add(-1)
						if i < 0 {
							return
						}
						k := uint64(i)%hot + 1
						// Offset keeps values unique tree-wide, which
						// InlineValues' duplicate-pointer protocol needs.
						if err := tr.Insert(wth, k, uint64(i)+1<<32); err != nil {
							panic(err)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
