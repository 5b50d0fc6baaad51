package bench

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/client"
	"repro/internal/pmem"
	"repro/server"
	"repro/store"
)

// ServerConfig shapes a network-serving run (see FigServer).
type ServerConfig struct {
	// Ops is the operation count per cell.
	Ops int
	// Clients is the sweep axis: closed-loop client goroutines per cell.
	// The first entry doubles as the speedup baseline; with Clients[0]=1
	// (and one connection) that baseline is one request per round trip.
	Clients []int
	// Conns is the TCP connection count shared by the client goroutines
	// (capped at the cell's client count). Default 4.
	Conns int
	// Mem carries the simulated-latency configuration for the store.
	Mem pmem.Config
}

// FigServer measures remote throughput over the pmkv wire protocol as the
// number of concurrent closed-loop clients grows: an in-process server on a
// loopback listener, a client pool in the same process, a 50/50 put/get mix.
// With one client per connection every request pays a full round trip; as
// clients share connections the protocol pipelines, and the table's speedup
// column reports what that buys. This is the repository's network headline:
// the paper's log-free persistent writes keep each server-side op cheap
// enough that loopback RTT, not the tree, is the bottleneck to amortise.
func FigServer(cfg ServerConfig) *Table {
	if len(cfg.Clients) == 0 {
		cfg.Clients = []int{1, 8, 32, 128}
	}
	if cfg.Conns == 0 {
		cfg.Conns = 4
	}
	tbl := &Table{
		Title: fmt.Sprintf("Remote serving: pipelined clients vs throughput, %d ops/cell, %d conns, write latency %v",
			cfg.Ops, cfg.Conns, cfg.Mem.WriteLatency),
		Header: []string{"clients", "conns", "Kops/s", "speedup", "p50 us", "p99 us"},
		Notes:  "expected shape: clients=1 pays one RTT per op; pipelined cells should beat it by >= 2x until the store saturates",
	}
	var base float64
	for _, clients := range cfg.Clients {
		tput, p50, p99 := serverRun(clients, cfg)
		if base == 0 {
			base = tput
		}
		conns := min(cfg.Conns, clients)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", conns),
			fmt.Sprintf("%.0f", tput/1000),
			fmt.Sprintf("%.2fx", tput/base),
			fmt.Sprintf("%.0f", float64(p50.Microseconds())),
			fmt.Sprintf("%.0f", float64(p99.Microseconds())),
		})
	}
	return tbl
}

// withServerPool owns the remote-benchmark lifecycle shared by serverRun and
// hotpathServer: a fresh 8-shard store and server on 127.0.0.1:0, a client
// pool of `conns` connections, then body(pool), then graceful drain and
// teardown in the order the server contract requires (pool, Shutdown, Serve
// return, store Close).
func withServerPool(mem pmem.Config, conns int, body func(pool *client.Pool)) {
	st, err := store.Open(store.Options{
		Shards:    8,
		ShardSize: 64 << 20,
		Mem:       mem,
	})
	if err != nil {
		panic(err)
	}
	srv := server.New(st, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	pool, err := client.DialPool(ln.Addr().String(), conns, client.Options{})
	if err != nil {
		panic(err)
	}
	body(pool)
	pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(ctx)
	cancel()
	<-done
	st.Close()
}

// serverRun drives one cell: `clients` goroutines in a closed loop over a
// shared pool, alternating Put and Get on a per-goroutine key stream.
// Returns ops/sec, p50 and p99.
func serverRun(clients int, cfg ServerConfig) (tput float64, p50, p99 time.Duration) {
	perG := cfg.Ops / clients
	if perG == 0 {
		perG = 1 // tiny -n with a wide client sweep: still measure something
	}
	lats := make([][]time.Duration, clients)
	var elapsed time.Duration
	withServerPool(cfg.Mem, min(cfg.Conns, clients), func(pool *client.Pool) {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := pool.Conn()
				my := make([]time.Duration, 0, perG)
				base := uint64(g) << 32
				for i := 0; i < perG; i++ {
					k := base | uint64(i/2+1)
					start := time.Now()
					var err error
					if i%2 == 0 {
						err = c.Put(k, k^0xdead)
					} else {
						_, _, err = c.Get(k)
					}
					if err != nil {
						panic(err)
					}
					my = append(my, time.Since(start))
				}
				lats[g] = my
			}(g)
		}
		wg.Wait()
		elapsed = time.Since(t0)
	})

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
	return float64(len(all)) / elapsed.Seconds(), pct(0.50), pct(0.99)
}
