package store

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestStoreMetrics checks that the per-operation histograms observe real
// traffic (including the varlen path and a GC pass) and that the
// registered families render and lint.
func TestStoreMetrics(t *testing.T) {
	// Clock every operation so the count assertions below are exact;
	// production samples one in opSampleMask+1.
	old := opSampleMask
	opSampleMask = 0
	defer func() { opSampleMask = old }()

	st, err := Open(Options{Shards: 2, ShardSize: 16 << 20, ValueLogExtent: 8 << 10})
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
		if _, err := ss.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ss.CompactValues(); err != nil {
		t.Fatal(err)
	}

	m := st.met
	checks := []struct {
		name string
		h    *metrics.Histogram
		min  uint64
	}{
		{"get", m.op[opGet], n},
		{"put", m.op[txnOpPut], n},
		{"delete", m.op[txnOpDelete], n},
		{"scan", m.op[opScan], 1},
		{"putBytes", m.op[opPutBytes], n},
		{"gcPause", m.gcPause, 1},
	}
	for _, c := range checks {
		if got := c.h.Snapshot().Count(); got < c.min {
			t.Errorf("%s histogram count = %d, want >= %d", c.name, got, c.min)
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
	} {
		if !fams[want] {
			t.Errorf("family %s missing from store scrape", want)
		}
	}
	if !strings.Contains(buf.String(), `pmkv_store_op_seconds_count{op="Get"}`) {
		t.Error("per-op Get series missing")
	}
}
