package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/client"
	"repro/internal/pmem"
	"repro/store"
)

// HotpathConfig shapes the FigHotpath run.
type HotpathConfig struct {
	// Ops is the operation count per cell.
	Ops int
	// Goroutines drives the store cell's concurrency and the server
	// cell's closed-loop client count. Default 8.
	Goroutines int
	// ReadFrac is the Get fraction of the mix. Default 0.9.
	ReadFrac float64
	// Pipeline is the per-client async window on the server cell: each
	// goroutine keeps this many calls in flight instead of paying a full
	// round trip per op, which is how real pmkv clients are expected to
	// run hot paths. Default 8; <0 means synchronous (depth 1).
	Pipeline int
	// Mem carries the simulated-latency configuration for the store cell.
	// The server cell always runs at DRAM latency (its bottleneck is the
	// wire, which is the thing being tracked).
	Mem pmem.Config
}

// FigHotpath is the read-path figure: a get-heavy (90/10) mix against the
// sharded store in-process, and the same mix through the network server
// over loopback, side by side.
func FigHotpath(cfg HotpathConfig) *Table {
	if cfg.Goroutines == 0 {
		cfg.Goroutines = 8
	}
	if cfg.ReadFrac == 0 {
		cfg.ReadFrac = 0.9
	}
	if cfg.Pipeline == 0 {
		cfg.Pipeline = 8
	}
	tbl := &Table{
		Title: fmt.Sprintf("Hot path: get-heavy (%d%% read) throughput, %d ops/cell, %d goroutines",
			int(cfg.ReadFrac*100), cfg.Ops, cfg.Goroutines),
		Header: []string{"cell", "Kops/s", "us/op"},
		Notes: fmt.Sprintf("store = in-process sharded store; server = same mix over the wire (loopback, async window %d per client).",
			max(cfg.Pipeline, 1)),
	}
	for _, cell := range []struct {
		name string
		run  func(HotpathConfig) float64
	}{
		{"store", hotpathStore},
		{"server", hotpathServer},
	} {
		tput := cell.run(cfg)
		tbl.Rows = append(tbl.Rows, []string{
			cell.name,
			fmt.Sprintf("%.0f", tput/1000),
			fmt.Sprintf("%.2f", 1e6/tput),
		})
	}
	return tbl
}

// hotpathKey spreads i over the keyspace deterministically.
func hotpathKey(i, g, space int) uint64 {
	return uint64((i*2654435761+g*0x9e3779b9)%space) + 1
}

// putPercent converts a read fraction to the integer Put percentage used by
// isPut.
func putPercent(readFrac float64) int {
	if readFrac >= 1 {
		return 0
	}
	if readFrac <= 0 {
		return 100
	}
	return int((1-readFrac)*100 + 0.5)
}

// isPut spreads putPct Puts per 100 ops evenly over the op index (Bresenham
// dithering), so any fraction — not just divisors of 1 — mixes correctly.
func isPut(i, putPct int) bool {
	return ((i+1)*putPct)/100 != (i*putPct)/100
}

// hotpathStore measures the in-process store: preload, then a closed loop of
// ReadFrac Gets / (1-ReadFrac) Puts per goroutine. Returns ops/sec.
func hotpathStore(cfg HotpathConfig) float64 {
	mem := cfg.Mem
	st, err := store.Open(store.Options{Shards: 8, ShardSize: 64 << 20, Mem: mem})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	space := cfg.Ops
	if space < 1000 {
		space = 1000
	}
	pre := st.NewSession()
	preload := make([]store.KV, 0, space/2)
	for i := 0; i < space/2; i++ {
		k := hotpathKey(i*2+1, 0, space)
		preload = append(preload, store.KV{Key: k, Val: k})
	}
	if err := pre.PutBatch(preload); err != nil {
		panic(err)
	}
	pre.Close()

	perG := cfg.Ops / cfg.Goroutines
	if perG == 0 {
		perG = 1
	}
	putPct := putPercent(cfg.ReadFrac)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ss := st.NewSession()
			defer ss.Close()
			for i := 0; i < perG; i++ {
				k := hotpathKey(i, g, space)
				var err error
				if isPut(i, putPct) {
					err = ss.Put(k, k^0xbeef)
				} else {
					_, _, err = ss.Get(k)
				}
				if err != nil {
					panic(err)
				}
			}
		}(g)
	}
	wg.Wait()
	return float64(perG*cfg.Goroutines) / time.Since(t0).Seconds()
}

// hotpathServer measures the same mix through pmkv-server over loopback
// with a pipelining client pool (lifecycle shared with the other remote
// figures via withServerPool): each goroutine keeps a cfg.Pipeline-deep
// async window in flight. Returns ops/sec.
func hotpathServer(cfg HotpathConfig) float64 {
	conns := 4
	if conns > cfg.Goroutines {
		conns = cfg.Goroutines
	}
	space := cfg.Ops
	if space < 1000 {
		space = 1000
	}
	perG := cfg.Ops / cfg.Goroutines
	if perG == 0 {
		perG = 1
	}
	putPct := putPercent(cfg.ReadFrac)
	var elapsed time.Duration
	withServerPool(pmem.Config{}, conns, func(pool *client.Pool) {
		preloadPool(pool, space)
		elapsed = runPipelinedMix(pool, cfg.Goroutines, perG, putPct, space, cfg.Pipeline)
	})
	return float64(perG*cfg.Goroutines) / elapsed.Seconds()
}

// preloadPool seeds every other key of the keyspace, the shared warm state
// of the get-heavy remote figures.
func preloadPool(pool *client.Pool, space int) {
	preload := make([]client.KV, 0, space/2)
	for i := 0; i < space/2; i++ {
		k := hotpathKey(i*2+1, 0, space)
		preload = append(preload, client.KV{Key: k, Val: k})
	}
	if err := pool.PutBatch(preload); err != nil {
		panic(err)
	}
}

// runPipelinedMix drives the standard get/put mix: `goroutines` clients,
// each issuing perG ops over its pool connection while keeping `depth`
// calls in flight (depth <= 1 degenerates to the old synchronous closed
// loop). Returns the wall time of the whole run.
func runPipelinedMix(pool *client.Pool, goroutines, perG, putPct, space, depth int) time.Duration {
	if depth < 1 {
		depth = 1
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := pool.Conn()
			window := make([]*client.Call, 0, depth)
			for i := 0; i < perG; i++ {
				k := hotpathKey(i, g, space)
				var call *client.Call
				if isPut(i, putPct) {
					call = c.PutAsync(k, k^0xbeef)
				} else {
					call = c.GetAsync(k)
				}
				window = append(window, call)
				if len(window) >= depth {
					if err := window[0].Wait(); err != nil {
						panic(err)
					}
					window = window[:copy(window, window[1:])]
				}
			}
			for _, call := range window {
				if err := call.Wait(); err != nil {
					panic(err)
				}
			}
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}
