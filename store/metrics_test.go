package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestStoreMetrics checks that the per-operation histograms observe real
// traffic (including the varlen and byte-key paths and a GC pass) — each
// public call exactly once, under its own op — and that the registered
// families render and lint.
func TestStoreMetrics(t *testing.T) {
	// Clock every operation so the count assertions below are exact;
	// production samples one in opSampleMask+1.
	old := opSampleMask
	opSampleMask = 0
	defer func() { opSampleMask = old }()

	// Automatic GC off, so the only passes are CompactValues' one per shard.
	st, err := Open(Options{Shards: 2, ShardSize: 16 << 20, ValueLogExtent: 8 << 10, GCGarbageRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	const n = 100
	for i := uint64(0); i < n; i++ {
		if err := ss.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if _, _, err := ss.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.ScanLimit(0, ^uint64(0), 50); err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 512)
	for i := uint64(1000); i < 1000+n; i++ {
		if err := ss.PutBytes(i, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1000); i < 1000+n; i++ {
		if _, _, err := ss.GetBytes(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.ScanBytes(1000, 1000+n, 0, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1000); i < 1000+n; i++ {
		if _, err := ss.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.CompactValues(); err != nil {
		t.Fatal(err)
	}
	kvKey := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	for i := 0; i < n; i++ {
		if err := ss.PutKV(kvKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, _, err := ss.GetKV(kvKey(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.ScanKV([]byte("key-"), nil, 0, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}

	m := st.met
	checks := []struct {
		name string
		h    *metrics.Histogram
		want uint64
	}{
		{"get", m.op[opGet], n},
		{"put", m.op[txnOpPut], n},
		{"delete", m.op[txnOpDelete], n},
		{"scan", m.op[opScan], 1},
		{"putBytes", m.op[opPutBytes], n},
		{"getBytes", m.op[opGetBytes], n},
		{"scanBytes", m.op[opScanBytes], 1},
		{"putKV", m.op[txnOpPutKV], n},
		{"getKV", m.op[opGetKV], n},
		{"scanKV", m.op[opScanKV], 1},
		{"gcPause", m.gcPause, 2},
		{"stripeWait", m.stripeWait, 0}, // one session: every first try succeeds
	}
	for _, c := range checks {
		if got := c.h.Snapshot().Count(); got != c.want {
			t.Errorf("%s histogram count = %d, want %d", c.name, got, c.want)
		}
	}
	// One record per point read and per pair scanned: each varlen key and
	// each byte key sits alone in its record, and nothing raced a read.
	for _, k := range readingOps {
		if got := m.recordsRead[k].Load(); got != n {
			t.Errorf("%s read %d value-log records, want %d", opNames[k], got, n)
		}
	}

	reg := metrics.NewRegistry()
	st.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.LintText(buf.Bytes())
	if err != nil {
		t.Fatalf("store scrape does not lint: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"pmkv_store_op_seconds", "pmkv_store_gc_pause_seconds",
		"pmkv_store_vlog_bytes", "pmkv_pmem_loads_total",
		"pmkv_pmem_used_bytes", "pmkv_pmem_retired_blocks_total",
		"pmkv_pmem_recycled_blocks_total",
		"pmkv_store_stripe_wait_seconds", "pmkv_store_stripe_parks_total",
		"pmkv_store_vlog_records_read_total",
	} {
		if !fams[want] {
			t.Errorf("family %s missing from store scrape", want)
		}
	}
	if !strings.Contains(buf.String(), `pmkv_store_op_seconds_count{op="Get"}`) {
		t.Error("per-op Get series missing")
	}
	if want := fmt.Sprintf(`pmkv_store_vlog_records_read_total{op="ScanKV"} %d`, n); !strings.Contains(buf.String(), want) {
		t.Errorf("scrape lacks %q", want)
	}
}
