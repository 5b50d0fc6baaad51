// Command pmkv-loadgen is a closed-loop load generator for pmkv-server: G
// goroutines issue requests over C pooled connections, each keeping a
// -pipeline deep window of async calls in flight, so the generator can
// drive the server's batched pipeline the way real hot-path clients do
// while still measuring true per-request latency (issue to completion).
// It reports throughput and latency percentiles, recorded into log-linear
// histograms (constant memory, ≤~3% relative error) rather than per-sample
// slices, so soak runs of any length are safe. The server's own counters
// and per-class latencies are on its /metrics endpoint (pmkv-server
// -pprof) and in the summary it prints when it drains.
//
// Usage:
//
//	pmkv-loadgen [-addr localhost:7841] [-ops 500000] [-duration 0]
//	             [-clients 32] [-conns 4] [-pipeline 1]
//	             [-mix get=50,put=50] [-keys 1000000] [-preload 0]
//	             [-scanmax 100] [-valsize 0] [-call-timeout 0]
//	             [-memprofile heap.pprof]
//
// -clients 1 -conns 1 -pipeline 1 is the unpipelined baseline (one request
// per round trip); raising -pipeline shows what the async window buys on a
// single connection, raising -clients shows what connection sharing buys.
// With -duration set the run is time-bounded instead of ops-bounded
// (-ops is ignored), which is the right shape for soak runs and for
// comparing configurations at equal wall time.
//
// The workload is a -mix of weighted operations ("get=90,put=10", also
// accepting delete and scan; weights need not sum to 100). Scans page
// -scanmax pairs from a random key upward, driving the server's pooled Scan
// response path.
//
// -valsize N switches the workload to the varlen-value ops: puts carry
// N-byte values (PutV), gets and scans read them back (GetV/ScanV), and
// reported throughput includes the value payload bytes. N must stay under
// wire.MaxValue. -valsize 0 (default) drives the fixed-width u64 ops.
//
// -keysize N switches the workload to the byte-string-keyed ops
// (PutK/GetK/DeleteK/ScanK): each key is N bytes (up to wire.MaxKey) with
// the key index packed into its leading bytes, so keys are distinct and
// bytewise order matches index order. Values carry -valsize bytes (minimum
// 8 when -valsize is 0). -keydist picks the key index distribution:
// uniform (default) or zipf (skewed toward low indices, exercising
// per-prefix bucket contention).
//
// -call-timeout puts a deadline on every request (client.Options
// CallTimeout), so a stalled or overloaded server fails calls instead of
// parking the generator. Failures are reported by class — busy (server
// shed the request past its -admit cap), nospace (store refused a varlen
// write), other — which makes the generator usable as an overload probe:
// run it against a small -admit server and the busy count is the shed
// traffic, with no other error class present.
//
// -memprofile writes a heap profile when the run finishes — the easy check
// that read-heavy serving stays allocation-quiet end to end.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/metrics"
	"repro/wire"
)

// mixWeights is the parsed -mix flag: relative weights per opcode.
type mixWeights struct {
	get, put, delete, scan int
}

func (m mixWeights) total() int { return m.get + m.put + m.delete + m.scan }

// parseMix parses "get=90,put=10" style op weight lists.
func parseMix(s string) (mixWeights, error) {
	var m mixWeights
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad -mix element %q, want op=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad -mix weight %q", val)
		}
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "get":
			m.get = w
		case "put":
			m.put = w
		case "delete", "del":
			m.delete = w
		case "scan":
			m.scan = w
		default:
			return m, fmt.Errorf("unknown -mix op %q (want get/put/delete/scan)", name)
		}
	}
	if m.total() == 0 {
		return m, fmt.Errorf("-mix %q has zero total weight", s)
	}
	return m, nil
}

// pick maps a roll in [0, total) to an opcode name.
func (m mixWeights) pick(roll int) string {
	if roll < m.get {
		return "get"
	}
	roll -= m.get
	if roll < m.put {
		return "put"
	}
	roll -= m.put
	if roll < m.delete {
		return "delete"
	}
	return "scan"
}

// pending is one in-flight async call with its issue time, so completion
// records true request latency even with a deep window.
type pending struct {
	call  *client.Call
	start time.Time
}

// makeKey builds the size-byte key for index idx: the index occupies the
// leading bytes big-endian (so bytewise key order matches index order and
// keys are distinct), the tail is deterministic padding. Each call
// allocates: async byte-key calls capture the key by reference, so
// in-flight windows must not share a buffer.
func makeKey(size int, idx uint64) []byte {
	var b8 [8]byte
	binary.BigEndian.PutUint64(b8[:], idx)
	key := make([]byte, 0, size)
	if size <= 8 {
		key = append(key, b8[8-size:]...)
	} else {
		key = append(key, b8[:]...)
		for len(key) < size {
			key = append(key, byte(idx)^byte(len(key)))
		}
	}
	return key
}

func main() {
	addr := flag.String("addr", "localhost:7841", "server address")
	ops := flag.Int("ops", 500000, "total operations (ignored when -duration is set)")
	duration := flag.Duration("duration", 0, "run for this long instead of a fixed op count")
	clients := flag.Int("clients", 32, "closed-loop worker goroutines")
	conns := flag.Int("conns", 4, "pooled TCP connections")
	pipeline := flag.Int("pipeline", 1, "async calls each worker keeps in flight (1 = synchronous)")
	mixFlag := flag.String("mix", "get=50,put=50", "weighted op mix, e.g. get=90,put=10 (ops: get, put, delete, scan)")
	keys := flag.Uint64("keys", 1000000, "key space size")
	preload := flag.Int("preload", 0, "keys to PutBatch before timing (0 = keyspace/4)")
	scanMax := flag.Int("scanmax", 100, "pairs per scan request in -mix scan ops")
	valSize := flag.Int("valsize", 0, "value bytes per op: 0 = fixed-width u64 ops, >0 = varlen ops (PutV/GetV/ScanV)")
	keySize := flag.Int("keysize", 0, "key bytes per op: 0 = u64 keys, >0 = byte-string ops (PutK/GetK/DeleteK/ScanK)")
	keyDist := flag.String("keydist", "uniform", "key index distribution: uniform or zipf")
	callTimeout := flag.Duration("call-timeout", 0, "per-request deadline; timed-out calls fail instead of blocking the run (0 = none)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	if *clients < 1 || *conns < 1 || *ops < 1 || *keys < 1 || *scanMax < 1 ||
		*pipeline < 1 || *duration < 0 || *valSize < 0 || *valSize > wire.MaxValue || *callTimeout < 0 ||
		*keySize < 0 || *keySize > wire.MaxKey || (*keyDist != "uniform" && *keyDist != "zipf") {
		flag.Usage()
		os.Exit(2)
	}
	if *keySize > 0 && *keySize < 8 {
		// Short keys bound the distinct-key count; clamp the keyspace so
		// the index always fits the key bytes.
		if max := uint64(1) << (8 * uint(*keySize)); *keys > max {
			*keys = max
		}
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	pool, err := client.DialPool(*addr, *conns, client.Options{CallTimeout: *callTimeout})
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	defer pool.Close()

	// Preload so Gets hit often even at low op counts.
	nPre := *preload
	if nPre == 0 {
		nPre = int(*keys / 4)
	}
	if nPre > 0 {
		rng := rand.New(rand.NewSource(1))
		t0 := time.Now()
		if *keySize > 0 {
			// Byte-string keys: pipeline individual PutK frames.
			vs := *valSize
			if vs == 0 {
				vs = 8
			}
			val := make([]byte, vs)
			rng.Read(val)
			c := pool.Conn()
			calls := make([]*client.Call, 0, 1024)
			flush := func() {
				for _, call := range calls {
					if err := call.Wait(); err != nil {
						log.Fatalf("preload: %v", err)
					}
				}
				calls = calls[:0]
			}
			for i := 0; i < nPre; i++ {
				calls = append(calls, c.PutKVAsync(makeKey(*keySize, rng.Uint64()%*keys), val))
				if len(calls) == cap(calls) {
					flush()
				}
			}
			flush()
		} else if *valSize > 0 {
			// No varlen batch op: pipeline individual PutV frames.
			val := make([]byte, *valSize)
			rng.Read(val)
			c := pool.Conn()
			calls := make([]*client.Call, 0, 1024)
			flush := func() {
				for _, call := range calls {
					if err := call.Wait(); err != nil {
						log.Fatalf("preload: %v", err)
					}
				}
				calls = calls[:0]
			}
			for i := 0; i < nPre; i++ {
				calls = append(calls, c.PutBytesAsync(rng.Uint64()%*keys+1, val))
				if len(calls) == cap(calls) {
					flush()
				}
			}
			flush()
		} else {
			batch := make([]client.KV, nPre)
			for i := range batch {
				k := rng.Uint64()%*keys + 1
				batch[i] = client.KV{Key: k, Val: k ^ 0xdead}
			}
			if err := pool.Conn().PutBatch(context.Background(), batch); err != nil {
				log.Fatalf("preload: %v", err)
			}
		}
		fmt.Printf("preloaded %d keys in %v\n", nPre, time.Since(t0).Round(time.Millisecond))
	}

	perG := *ops / *clients
	if perG == 0 {
		perG = 1 // fewer ops than clients: still do one op each
	}
	var deadline time.Time
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	total := mix.total()
	// Latency is recorded into one log-linear histogram per worker (merged
	// after the run), so memory stays constant no matter how many ops a
	// soak run completes — no per-sample slices, no end-of-run sort.
	hists := make([]*metrics.Histogram, *clients)
	for g := range hists {
		hists[g] = metrics.NewHistogram()
	}
	// Failures are counted by class so an overload or space-exhaustion run
	// reports what actually happened, not just a number: busy = shed by the
	// server's admission cap, nospace = varlen write refused by the store's
	// space admission, other = transport faults, timeouts, remote errors.
	var busyErrs, nospaceErrs, otherErrs, scanned atomic.Uint64
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < *clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			c := pool.Conn() // pin a connection; many goroutines share each
			var val []byte
			if vs := *valSize; vs > 0 || *keySize > 0 {
				if vs == 0 {
					vs = 8
				}
				val = make([]byte, vs)
				rng.Read(val)
			}
			nextIdx := func() uint64 { return rng.Uint64() % *keys }
			if *keyDist == "zipf" {
				z := rand.NewZipf(rng, 1.1, 8, *keys-1)
				nextIdx = z.Uint64
			}
			h := hists[g]
			complete := func(p pending) {
				if err := p.call.Wait(); err != nil {
					switch {
					case errors.Is(err, client.ErrBusy):
						busyErrs.Add(1)
					case errors.Is(err, client.ErrNoSpace):
						nospaceErrs.Add(1)
					default:
						otherErrs.Add(1)
					}
					return
				}
				switch p.call.Op {
				case wire.OpScan:
					scanned.Add(uint64(len(p.call.Resp.Pairs)))
				case wire.OpScanV:
					scanned.Add(uint64(len(p.call.Resp.VPairs)))
				case wire.OpScanK:
					scanned.Add(uint64(len(p.call.Resp.KPairs)))
				}
				h.RecordSince(p.start)
			}
			window := make([]pending, 0, *pipeline)
			for i := 0; *duration > 0 || i < perG; i++ {
				idx := nextIdx()
				k := idx%*keys + 1
				op := mix.pick(rng.Intn(total))
				start := time.Now()
				if *duration > 0 && !start.Before(deadline) {
					break
				}
				var call *client.Call
				switch {
				case *keySize > 0 && op == "get":
					call = c.GetKVAsync(makeKey(*keySize, idx))
				case *keySize > 0 && op == "put":
					call = c.PutKVAsync(makeKey(*keySize, idx), val)
				case *keySize > 0 && op == "delete":
					call = c.DeleteKVAsync(makeKey(*keySize, idx))
				case *keySize > 0 && op == "scan":
					call = c.ScanKVAsync(makeKey(*keySize, idx), nil, *scanMax)
				case op == "get" && *valSize > 0:
					call = c.GetBytesAsync(k)
				case op == "get":
					call = c.GetAsync(k)
				case op == "put" && *valSize > 0:
					call = c.PutBytesAsync(k, val)
				case op == "put":
					call = c.PutAsync(k, k^0xbeef)
				case op == "delete":
					call = c.DeleteAsync(k)
				case op == "scan" && *valSize > 0:
					call = c.ScanBytesAsync(k, ^uint64(0), *scanMax)
				case op == "scan":
					call = c.ScanAsync(k, ^uint64(0), *scanMax)
				}
				window = append(window, pending{call, start})
				if len(window) >= *pipeline {
					complete(window[0])
					window = window[:copy(window, window[1:])]
				}
			}
			for _, p := range window {
				complete(p)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	snap := hists[0].Snapshot()
	for _, h := range hists[1:] {
		snap.Merge(h.Snapshot())
	}
	done := snap.Count()
	failed := busyErrs.Load() + nospaceErrs.Load() + otherErrs.Load()
	if done == 0 {
		log.Fatalf("no operation succeeded (%d failed: %d busy, %d nospace, %d other)",
			failed, busyErrs.Load(), nospaceErrs.Load(), otherErrs.Load())
	}
	pct := func(p float64) time.Duration {
		return time.Duration(snap.Quantile(p))
	}
	tput := float64(done) / elapsed.Seconds()
	fmt.Printf("%d ops in %v: %.0f ops/s (%d failed)\n",
		done, elapsed.Round(time.Millisecond), tput, failed)
	if failed > 0 {
		fmt.Printf("failures: %d busy (shed), %d nospace, %d other\n",
			busyErrs.Load(), nospaceErrs.Load(), otherErrs.Load())
	}
	fmt.Printf("latency: p50 %v  p90 %v  p99 %v  p99.9 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(0.999).Round(time.Microsecond),
		time.Duration(snap.Max()).Round(time.Microsecond))
	fmt.Printf("config: %d clients over %d conns, pipeline %d, mix %s, keyspace %d", *clients, *conns, *pipeline, *mixFlag, *keys)
	if mix.scan > 0 {
		fmt.Printf(", %d pairs scanned", scanned.Load())
	}
	if *valSize > 0 {
		fmt.Printf(", varlen %d B values", *valSize)
	}
	if *keySize > 0 {
		fmt.Printf(", %d B byte keys (%s)", *keySize, *keyDist)
	}
	fmt.Println()

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC() // flush dead objects so the profile shows live state
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		f.Close()
		fmt.Printf("heap profile written to %s\n", *memprofile)
	}
}
