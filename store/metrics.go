package store

import (
	"time"

	"repro/internal/metrics"
)

// opSampleMask sets the per-session latency sampling rate to one in
// (mask+1) operations; must be a power of two minus one. Tests set it to
// 0 to clock every operation. GC pass histograms are never sampled.
var opSampleMask uint32 = 7

// storeMetrics is the store's always-on instrumentation: one latency
// histogram per session operation, indexed by op kind (recorded with two
// clock reads around one in every opSampleMask+1 calls — lock-free,
// allocation-free; see Session.gate) and the GC pass distributions.
// Counters for the value log and the pmem layer are not duplicated here;
// RegisterMetrics exposes the existing accounting read-function-backed.
type storeMetrics struct {
	op [numOps]*metrics.Histogram

	// gcPause is the duration of one GC pass (manual or automatic — the
	// latency a triggering writer absorbs); gcRelocated the live records
	// each pass copied forward.
	gcPause     *metrics.Histogram
	gcRelocated *metrics.Histogram

	// stripeWait is how long a writer waited for a key stripe it found
	// taken, and stripeParks how many of those waits outlasted stripeWait
	// and blocked (see stripe.acquire). A stripe taken at the first try
	// records in neither.
	stripeWait  *metrics.Histogram
	stripeParks metrics.Counter
}

// opNames is the op="…" label of each kind's pmkv_store_op_seconds series.
var opNames = [numOps]string{
	txnOpPut: "Put", txnOpDelete: "Delete", txnOpPutKV: "PutKV", txnOpDelKV: "DeleteKV",
	opPutBytes: "PutBytes", opGet: "Get", opPutBatch: "PutBatch", opScan: "Scan",
	opGetBytes: "GetBytes", opScanBytes: "ScanBytes", opGetKV: "GetKV",
	opScanKV: "ScanKV", opTxnCommit: "TxnCommit",
}

func newStoreMetrics() *storeMetrics {
	m := &storeMetrics{gcPause: metrics.NewHistogram(), gcRelocated: metrics.NewHistogram(),
		stripeWait: metrics.NewHistogram()}
	for k := range m.op {
		m.op[k] = metrics.NewHistogram()
	}
	return m
}

// RegisterMetrics exposes the store's instrumentation on reg: per-operation
// latency histograms, GC pass distributions, the value-log space accounting,
// and the pmem layer's simulated-device counters. Safe to call on several
// registries; the families read shared live state.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	m := s.met
	for k, name := range opNames {
		if name != "" {
			reg.Histogram("pmkv_store_op_seconds", `op="`+name+`"`,
				"store operation latency (a GetBatch records its per-key average once per key under Get)", 1e-9, m.op[k])
		}
	}
	reg.Histogram("pmkv_store_gc_pause_seconds", "",
		"duration of one value-log GC pass", 1e-9, m.gcPause)
	reg.Histogram("pmkv_store_gc_relocated_records", "",
		"live records relocated per GC pass", 1, m.gcRelocated)
	reg.Histogram("pmkv_store_stripe_wait_seconds", "",
		"wait for a key stripe found taken (a stripe taken at the first try is not recorded)", 1e-9, m.stripeWait)
	reg.Counter("pmkv_store_stripe_parks_total", "",
		"stripe waits that outlasted the yield window and blocked",
		m.stripeParks.Load)

	vs := func(read func(ValueLogStats) int64) func() float64 {
		return func() float64 { return float64(read(s.ValueStats())) }
	}
	reg.Gauge("pmkv_store_vlog_bytes", `state="live"`,
		"value-log payload bytes by state",
		vs(func(v ValueLogStats) int64 { return v.Live }))
	reg.Gauge("pmkv_store_vlog_bytes", `state="garbage"`,
		"value-log payload bytes by state",
		vs(func(v ValueLogStats) int64 { return v.Garbage }))
	reg.Gauge("pmkv_store_vlog_bytes", `state="cap"`,
		"value-log payload bytes by state",
		vs(func(v ValueLogStats) int64 { return v.Cap }))
	vc := func(read func(ValueLogStats) int64) func() uint64 {
		return func() uint64 { return uint64(read(s.ValueStats())) }
	}
	reg.Counter("pmkv_store_vlog_reclaimed_bytes_total", "",
		"arena bytes value-log GC returned to the pools",
		vc(func(v ValueLogStats) int64 { return v.Reclaimed }))
	reg.Counter("pmkv_store_vlog_relocated_total", "",
		"live records value-log GC copied forward",
		vc(func(v ValueLogStats) int64 { return v.Relocated }))
	reg.Counter("pmkv_store_vlog_gc_extents_total", "",
		"extents value-log GC reclaimed",
		vc(func(v ValueLogStats) int64 { return v.GCPasses }))

	reg.Counter("pmkv_pmem_loads_total", "",
		"word loads issued to the simulated device",
		func() uint64 { return s.Stats().Loads })
	reg.Counter("pmkv_pmem_stores_total", "",
		"word stores issued to the simulated device",
		func() uint64 { return s.Stats().Stores })
	reg.Counter("pmkv_pmem_charged_reads_total", "",
		"serial line accesses that paid PM read latency",
		func() uint64 { return s.Stats().ChargedReads })
	reg.Counter("pmkv_pmem_flushed_lines_total", "",
		"cache lines written back by Flush/Persist",
		func() uint64 { return s.Stats().FlushedLines })
	reg.Counter("pmkv_pmem_flush_calls_total", "",
		"Flush/Persist invocations",
		func() uint64 { return s.Stats().FlushCalls })
	reg.Counter("pmkv_pmem_fences_total", "",
		"ordering fences issued",
		func() uint64 { return s.Stats().Fences })
	// Retired rising with recycled flat, or used_bytes rising under a
	// stationary workload, is a reclamation leak.
	reg.Counter("pmkv_pmem_retired_blocks_total", "",
		"blocks handed to grace-period reclamation",
		func() uint64 { return s.Stats().RetiredBlocks })
	reg.Counter("pmkv_pmem_recycled_blocks_total", "",
		"allocations served from a free list",
		func() uint64 { return s.Stats().RecycledBlocks })
	reg.Gauge("pmkv_pmem_used_bytes", "",
		"arena bytes neither free-listed nor beyond the allocators' high-water marks, all shards",
		func() float64 {
			var used int64
			for _, sh := range s.shards {
				used += sh.pool.Size() - sh.pool.FreeBytes()
			}
			return float64(used)
		})
}

// recordGC charges one GC pass to the pause and relocation histograms.
func (m *storeMetrics) recordGC(start time.Time, relocated int) {
	m.gcPause.RecordSince(start)
	m.gcRelocated.Record(int64(relocated))
}
