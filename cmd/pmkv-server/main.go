// Command pmkv-server serves a sharded FAST+FAIR store over TCP using the
// pmkv wire protocol.
//
// Usage:
//
//	pmkv-server [-addr :7841] [-shards 8] [-shard-size-mb 256]
//	            [-read-latency 0] [-write-latency 0] [-gc-ratio 0.5]
//	            [-admit 0] [-idle-timeout 0] [-drain 10s] [-quiet]
//	            [-slow-op 0]
//	            [-pprof addr] [-mutexprofile 0] [-blockprofile 0]
//
// The store lives in simulated persistent memory inside the process; the
// latency flags emulate a PM device (e.g. -write-latency 300ns). SIGINT or
// SIGTERM triggers a graceful shutdown: the listeners close, in-flight
// requests drain and answer, and only then does the store close.
//
// Each connection is served by one goroutine that reads a batch of frames,
// executes it on its own store session and writes the responses back; there
// is nothing to size or tune on that path. -admit caps the requests decoded
// but not yet answered across all connections (past it the server sheds
// with StatusBusy), and -idle-timeout cuts a connection that neither sends
// a frame nor takes a response for that long.
//
// -gc-ratio tunes value-log compaction: when a shard's varlen garbage
// fraction reaches the ratio, the writing session compacts the shard
// inline, so sustained overwrite traffic runs in bounded space. -gc-ratio
// -1 disables automatic compaction (the log then only grows).
//
// -pprof serves net/http/pprof on the given address (e.g. localhost:6060)
// for live CPU/heap/goroutine profiles while the server runs. The same
// listener carries the observability endpoints: /metrics is Prometheus
// text format (per-opcode request counts and errors, queue/execute/flush
// stage latency histograms, store op latencies, GC pauses, value-log and
// pmem counters), the one way to read a running server. -slow-op logs any request whose queue+execute time
// meets the threshold, rate-limited to one line per 100ms.
// -mutexprofile and -blockprofile set the runtime's contention sampling
// rates (runtime.SetMutexProfileFraction / runtime.SetBlockProfileRate) so
// the pprof mutex and block endpoints carry data; both default to 0 (off)
// because sampling costs a little on every contended event.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/server"
	"repro/store"
)

func main() {
	addr := flag.String("addr", ":7841", "listen address")
	shards := flag.Int("shards", 8, "store shard count")
	shardMB := flag.Int64("shard-size-mb", 256, "arena size per shard, MiB")
	readLat := flag.Duration("read-latency", 0, "simulated PM read latency (e.g. 150ns)")
	writeLat := flag.Duration("write-latency", 0, "simulated PM write latency (e.g. 300ns)")
	gcRatio := flag.Float64("gc-ratio", 0, "value-log garbage ratio that triggers automatic compaction (0 = default 0.5, negative disables)")
	admit := flag.Int("admit", 0, "global in-flight admission cap; past it requests are shed with StatusBusy (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle this long (0 = never)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
	quiet := flag.Bool("quiet", false, "suppress per-connection diagnostics")
	slowOp := flag.Duration("slow-op", 0, "log requests slower than this, rate-limited (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	mutexProfile := flag.Int("mutexprofile", 0, "mutex contention sampling: 1 of every N events (0 = off)")
	blockProfile := flag.Int("blockprofile", 0, "blocking profile sampling rate in ns (0 = off)")
	flag.Parse()

	if *mutexProfile > 0 {
		runtime.SetMutexProfileFraction(*mutexProfile)
	}
	if *blockProfile > 0 {
		runtime.SetBlockProfileRate(*blockProfile)
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof listen %s: %v", *pprofAddr, err)
		}
		log.Printf("pmkv-server: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("pmkv-server: pprof serve: %v", err)
			}
		}()
	}

	st, err := store.Open(store.Options{
		Shards:         *shards,
		ShardSize:      *shardMB << 20,
		GCGarbageRatio: *gcRatio,
		Latency: store.LatencyOptions{
			Read:  *readLat,
			Write: *writeLat,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := server.Options{
		MaxServerInflight: *admit,
		IdleTimeout:       *idleTimeout,
	}
	opts.SlowOpThreshold = *slowOp
	if !*quiet {
		opts.Logf = log.Printf
	}
	srv := server.New(st, opts)

	// The pprof mux (DefaultServeMux) also carries the registry, as
	// Prometheus text format on /metrics.
	http.Handle("/metrics", srv.Metrics().Handler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pmkv-server: serving %d shards (%d MiB each) on %s",
		*shards, *shardMB, ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("pmkv-server: %v: draining (budget %v)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("pmkv-server: drain incomplete: %v", err)
		}
	case err := <-done:
		if err != nil {
			log.Printf("pmkv-server: serve: %v", err)
		}
	}

	stats := srv.Stats()
	vs := st.ValueStats()
	if err := st.Close(); err != nil {
		log.Printf("pmkv-server: store close: %v", err)
	}
	fmt.Printf("served %d ops (%d errors), %d conns total, %d B in, %d B out\n",
		stats.Ops, stats.Errors, stats.ConnsTotal, stats.BytesIn, stats.BytesOut)
	fmt.Printf("batching: %d read batches, %d executed ops, %d write flushes\n",
		stats.ReadBatches, stats.InlineOps, stats.Flushes)
	if vs.Live+vs.Garbage+vs.Reclaimed > 0 {
		fmt.Printf("value log: %d B live, %d B garbage, %d B reclaimed by GC\n",
			vs.Live, vs.Garbage, vs.Reclaimed)
	}
}
