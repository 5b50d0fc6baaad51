package main

import (
	"slices"
	"time"
)

// The simulated device. dram charges nothing; pm busy-spins 300 ns per
// charged read line and per flushed line inside internal/pmem, which is the
// only way a flush or fence saving can reach wall clock.
const pmLatency = 300 * time.Nanosecond

// workload is one row of the benchmark: a stack, a data set and an
// operation mix. The reasons are in README.md and BENCHMARK.json.
type workload struct {
	id     int
	name   string
	pm     bool // store on the pm device instead of dram
	net    bool // client -> TCP loopback -> server -> store
	window int  // net: async calls in flight per connection
	// clockMask+1 is the in-process latency sampling period: two clock
	// reads are ~10 % of a 0.7 us Get, so the sub-microsecond workloads
	// clock every 8th call; everything slower clocks every call.
	clockMask uint64
	// churned preloads every varlen value twice, so the value logs start at
	// the garbage ratio that triggers GC instead of reaching it mid-run.
	churned bool
	// shardSize is the capacity of each store shard and of each pool the
	// replays make: 0, the store's default of 256 MiB, in real runs.
	shardSize int64
	ks        []keyspace
}

const (
	wlU64Read = iota
	wlU64ChurnPM
	wlKVChurn
	wlScan
	wlTxn
	wlNetPipelined
	wlNetBytes
)

// Keyspace bases: far enough apart that the three families of embed_scan
// never meet in the shared trees.
const (
	baseU64   = 1 << 40
	baseBytes = 2 << 40
	baseKV    = 3 << 40
)

// workloads returns the seven workloads with their universes, and with them
// the pools, divided by div (1 in real runs; the self-test and the
// durability guard shrink them).
func workloads(div int) []workload {
	u := func(n int) int { return max(n/div, 256) &^ 7 }
	wls := []workload{
		{id: wlU64Read, name: "embed_u64_read", clockMask: 7,
			ks: []keyspace{{fam: famU64, base: baseU64, n: u(1 << 19)}}},
		{id: wlU64ChurnPM, name: "embed_u64_churn_pm", pm: true,
			ks: []keyspace{{fam: famU64, base: baseU64, n: u(1 << 19), halfLive: true}}},
		{id: wlKVChurn, name: "embed_kv_churn", churned: true,
			ks: []keyspace{{fam: famKV, base: baseKV, n: u(200_000), minLen: 64, maxLen: 511, halfLive: true, shared: true}}},
		{id: wlScan, name: "embed_scan",
			ks: []keyspace{
				{fam: famU64, base: baseU64, n: u(100_000)},
				{fam: famBytes, base: baseBytes, n: u(100_000), minLen: 256, maxLen: 256},
				{fam: famKV, base: baseKV, n: u(100_000), minLen: 256, maxLen: 256},
			}},
		{id: wlTxn, name: "embed_txn", pm: true,
			ks: []keyspace{{fam: famU64, base: baseU64, n: u(1 << 16)}}},
		{id: wlNetPipelined, name: "net_u64_pipelined", net: true, window: 32,
			ks: []keyspace{{fam: famU64, base: baseU64, n: u(1 << 19)}}},
		{id: wlNetBytes, name: "net_bytes_sync", net: true, window: 1, churned: true,
			ks: []keyspace{{fam: famBytes, base: baseBytes, n: u(20_000), minLen: 1024, maxLen: 1024}}},
	}
	if div > 1 {
		for i := range wls {
			wls[i].shardSize = max(256<<20/int64(div), 4<<20)
		}
	}
	return wls
}

func findWorkload(name string, div int) *workload {
	for _, wl := range workloads(div) {
		if wl.name == name {
			return &wl
		}
	}
	return nil
}

// read fills o as a read of idx expecting the model's current version.
func (w *worker) read(o *op, kind uint8, ks int, idx uint32) {
	o.kind, o.ks, o.idx = kind, uint8(ks), idx
	o.ver = w.ver[ks][idx/numWorkers]
}

// put fills o as an upsert of idx and advances the model.
func (w *worker) put(o *op, kind uint8, ks int, k *keyspace, idx uint32) {
	v := &w.ver[ks][idx/numWorkers]
	o.kind, o.ks, o.idx, o.was = kind, uint8(ks), idx, isLive(*v)
	*v = nextPut(*v)
	o.ver = *v
	w.userBytes += k.userBytes(idx)
}

// del fills o as a delete of idx and advances the model.
func (w *worker) del(o *op, kind uint8, ks int, idx uint32) {
	v := &w.ver[ks][idx/numWorkers]
	o.kind, o.ks, o.idx, o.was = kind, uint8(ks), idx, isLive(*v)
	*v = nextDelete(*v)
	o.ver = *v
}

// next generates the worker's next operation. Keys are uniform over the
// worker's own half of the universe; scans start anywhere.
func (wl *workload) next(w *worker, o *op) {
	r := w.rng.IntN(100)
	ks := wl.ks
	k := &ks[0]
	switch wl.id {
	case wlU64Read:
		if r < 95 {
			w.read(o, opGet, 0, w.own(k))
		} else {
			w.put(o, opPut, 0, k, w.own(k))
		}
	case wlU64ChurnPM:
		idx := w.own(k)
		switch {
		case r < 20:
			w.read(o, opGet, 0, idx)
		case isLive(w.ver[0][idx/numWorkers]):
			w.del(o, opDelete, 0, idx)
		default:
			w.put(o, opPut, 0, k, idx)
		}
	case wlKVChurn:
		// 35 % puts and 15 % deletes: 15 of the 35 insert an absent key
		// and every delete removes a live one, so the live half stays half.
		switch {
		case r < 50:
			w.read(o, opGetKV, 0, w.own(k))
		case r < 65:
			w.put(o, opPutKV, 0, k, w.ownWhere(0, k, false))
		case r < 85:
			w.put(o, opPutKV, 0, k, w.ownWhere(0, k, true))
		default:
			w.del(o, opDeleteKV, 0, w.ownWhere(0, k, true))
		}
	case wlScan:
		f := w.rng.IntN(3)
		k = &ks[f]
		if r < 90 {
			o.kind, o.ks = opScan+uint8(f), uint8(f)
			o.idx = uint32(w.rng.IntN(k.n - scanPairs))
		} else {
			w.put(o, [3]uint8{opPut, opPutBytes, opPutKV}[f], f, k, w.own(k))
		}
	case wlTxn:
		o.kind, o.ks = opCommit, 0
		for i := range o.ridx {
			o.ridx[i] = w.own(k)
			o.rver[i] = w.ver[0][o.ridx[i]/numWorkers]
		}
		for i := range o.widx {
			idx := w.own(k)
			for slices.Contains(o.widx[:i], idx) {
				idx = w.own(k)
			}
			v := &w.ver[0][idx/numWorkers]
			*v = nextPut(*v)
			o.widx[i], o.wver[i] = idx, *v
		}
		w.userBytes += txnWrites * 16
	case wlNetPipelined:
		if r < 90 {
			w.read(o, opGet, 0, w.own(k))
		} else {
			w.put(o, opPut, 0, k, w.own(k))
		}
	case wlNetBytes:
		switch {
		case r < 50:
			w.read(o, opGetBytes, 0, w.own(k))
		case r < 90:
			w.put(o, opPutBytes, 0, k, w.own(k))
		default:
			o.kind, o.ks = opScanBytes, 0
			o.idx = uint32(w.rng.IntN(k.n - scanPairs))
		}
	}
	if isWrite(o.kind) {
		w.writes++
	}
}
