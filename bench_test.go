package repro

// One testing.B benchmark per paper table/figure. These run at reduced scale
// (benchmarks preload tens of thousands of keys); cmd/benchfig regenerates
// the full tables with configurable scale. Run:
//
//	go test -bench=. -benchmem
//
// Figure 7's thread axis maps to -cpu (e.g. -cpu 1,2,4). The store shard
// axis (BenchmarkStoreShards) is its own sub-benchmark dimension.

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/index"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/tpcc"
	"repro/store"
)

const preloadN = 50_000

func preloaded(b *testing.B, k index.Kind, mem pmem.Config, nodeSize int) (index.Index, *pmem.Thread, []uint64) {
	b.Helper()
	ix, th, err := index.New(k, mem, index.Options{NodeSize: nodeSize, InlineValues: true})
	if err != nil {
		b.Fatal(err)
	}
	keys := bench.Keys(preloadN, 1)
	if _, err := bench.Load(ix, th, keys); err != nil {
		b.Fatal(err)
	}
	return ix, th, keys
}

// BenchmarkFig3 measures insert and search per node size for linear and
// binary in-node search (DRAM latency).
func BenchmarkFig3(b *testing.B) {
	for _, ns := range []int{256, 512, 1024, 4096} {
		for _, mode := range []string{"linear", "binary"} {
			b.Run(mode+"/insert/node="+itoa(ns), func(b *testing.B) {
				p := pmem.New(pmem.Config{Size: 1 << 30})
				th := p.NewThread()
				tr, err := core.New(p, th, core.Options{
					NodeSize: ns, BinarySearch: mode == "binary", InlineValues: true})
				if err != nil {
					b.Fatal(err)
				}
				keys := bench.Keys(b.N, 2)
				b.ResetTimer()
				for _, k := range keys {
					if err := tr.Insert(th, k, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig4 measures range scans (selection ratio 1%) per index at
// 300ns read latency.
func BenchmarkFig4(b *testing.B) {
	for _, k := range bench.AllSingleThreaded {
		b.Run(string(k), func(b *testing.B) {
			ix, th, keys := preloaded(b, k,
				pmem.Config{ReadLatency: 300 * time.Nanosecond}, 1024)
			span := uint64(1) << 57 // ~1% of a uniform uint64 keyspace
			rng := rand.New(rand.NewSource(3))
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				lo := keys[rng.Intn(len(keys))]
				ix.Scan(th, lo, lo+span, func(k, v uint64) bool {
					sink += v
					return true
				})
			}
			atomic.AddUint64(&benchSink, sink)
		})
	}
}

// BenchmarkFig5b measures point search at 300ns read latency.
func BenchmarkFig5b(b *testing.B) {
	for _, k := range bench.AllSingleThreaded {
		b.Run(string(k), func(b *testing.B) {
			ix, th, keys := preloaded(b, k,
				pmem.Config{ReadLatency: 300 * time.Nanosecond}, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				if _, ok := ix.Get(th, k); !ok {
					b.Fatalf("missing key %d", k)
				}
			}
		})
	}
}

// BenchmarkFig5c measures inserts at 300ns write latency (TSO).
func BenchmarkFig5c(b *testing.B) {
	kinds := []index.Kind{index.FastFair, index.FastFairLogging, index.FPTree,
		index.WBTree, index.WORT, index.SkipList}
	for _, k := range kinds {
		b.Run(string(k), func(b *testing.B) {
			ix, th, err := index.New(k,
				pmem.Config{WriteLatency: 300 * time.Nanosecond},
				index.Options{InlineValues: true})
			if err != nil {
				b.Fatal(err)
			}
			keys := bench.Keys(b.N, 4)
			b.ResetTimer()
			for _, key := range keys {
				if err := ix.Insert(th, key, key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5d measures inserts on the non-TSO model (store fences cost
// 30ns, write latency 1000ns).
func BenchmarkFig5d(b *testing.B) {
	for _, k := range bench.AllSingleThreaded {
		b.Run(string(k), func(b *testing.B) {
			ns := 0
			if k == index.WBTree || k == index.FPTree {
				ns = 256
			}
			ix, th, err := index.New(k,
				pmem.Config{WriteLatency: 1000 * time.Nanosecond,
					Model: pmem.NonTSO, BarrierLatency: 30 * time.Nanosecond},
				index.Options{NodeSize: ns, InlineValues: true})
			if err != nil {
				b.Fatal(err)
			}
			keys := bench.Keys(b.N, 5)
			b.ResetTimer()
			for _, key := range keys {
				if err := ix.Insert(th, key, key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6 runs TPC-C transactions (mix W1) per index kind at 300ns
// R/W latency, plus all four mixes for FAST+FAIR.
func BenchmarkFig6(b *testing.B) {
	mem := pmem.Config{ReadLatency: 300 * time.Nanosecond, WriteLatency: 300 * time.Nanosecond}
	for _, k := range bench.AllSingleThreaded {
		b.Run("W1/"+string(k), func(b *testing.B) {
			bm, err := tpcc.NewBound(k, 1, mem)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			b.ResetTimer()
			if _, err := bm.Run(tpcc.Mixes[0], b.N, rng); err != nil {
				b.Fatal(err)
			}
		})
	}
	for _, mix := range tpcc.Mixes[1:] {
		b.Run(mix.Name+"/"+string(index.FastFair), func(b *testing.B) {
			bm, err := tpcc.NewBound(index.FastFair, 1, mem)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			b.ResetTimer()
			if _, err := bm.Run(mix, b.N, rng); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFig7Search / Insert / Mixed: parallel throughput per index.
// Use -cpu 1,2,4,8 to sweep the thread axis.
func BenchmarkFig7Search(b *testing.B) {
	for _, k := range bench.AllConcurrent {
		b.Run(string(k), func(b *testing.B) {
			ix, _, keys := preloaded(b, k,
				pmem.Config{WriteLatency: 300 * time.Nanosecond}, 0)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				th := ix.Pool().NewThread()
				i := 0
				for pb.Next() {
					k := keys[(i*2654435761)%len(keys)]
					if _, ok := ix.Get(th, k); !ok {
						b.Errorf("missing key %d", k)
						return
					}
					i++
				}
			})
		})
	}
}

func BenchmarkFig7Insert(b *testing.B) {
	for _, k := range []index.Kind{index.FastFair, index.FPTree, index.BLink, index.SkipList} {
		b.Run(string(k), func(b *testing.B) {
			ix, _, _ := preloaded(b, k,
				pmem.Config{WriteLatency: 300 * time.Nanosecond}, 0)
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				th := ix.Pool().NewThread()
				for pb.Next() {
					k := ctr.Add(1) | 1<<63
					if err := ix.Insert(th, k, k); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkFig7Mixed(b *testing.B) {
	for _, k := range bench.AllConcurrent {
		b.Run(string(k), func(b *testing.B) {
			ix, _, keys := preloaded(b, k,
				pmem.Config{WriteLatency: 300 * time.Nanosecond}, 0)
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				th := ix.Pool().NewThread()
				i := 0
				for pb.Next() {
					switch i % 21 {
					case 0, 1, 2, 3: // 4 inserts
						k := ctr.Add(1) | 1<<63
						if err := ix.Insert(th, k, k); err != nil {
							b.Error(err)
							return
						}
					case 20: // 1 delete
						k := ctr.Load()/2 | 1<<63
						ix.Delete(th, k)
					default: // 16 searches
						ix.Get(th, keys[(i*2654435761)%len(keys)])
					}
					i++
				}
			})
		})
	}
}

// BenchmarkStoreShards measures the sharded store's concurrent insert+get
// throughput per shard count at 300ns write latency. Run with -cpu 8 (or
// the host's core count) to see the shard axis separate. It is the shard
// sweep's only driver: the gated benchmark/ workloads run a fixed 4 shards.
func BenchmarkStoreShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			st, err := store.Open(store.Options{
				Shards:    shards,
				ShardSize: 256 << 20,
				Mem:       pmem.Config{WriteLatency: 300 * time.Nanosecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			var ctr atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ss := st.NewSession()
				defer ss.Close()
				i := 0
				for pb.Next() {
					if i%2 == 0 {
						k := ctr.Add(1)
						if err := ss.Put(k, k^0xdead); err != nil {
							b.Error(err)
							return
						}
					} else {
						k := ctr.Load()
						ss.Get(k)
					}
					i++
				}
			})
		})
	}
}

var benchSink uint64

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
