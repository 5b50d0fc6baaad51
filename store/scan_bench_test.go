package store

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// The scan tests' two value-log families: varlen keys from scanBytesBase
// and byte keys whose 8-byte prefix counts up from scanKVBase, far apart
// so that neither family's scan runs into the other's tree words.
const (
	scanBytesBase = 1 << 40
	scanKVBase    = 2 << 40
)

// scanKVKey writes the 16-byte key of index i: a prefix of its own (so
// every key is one bucket) and a fixed suffix.
func scanKVKey(dst *[16]byte, i uint64) []byte {
	binary.BigEndian.PutUint64(dst[:], scanKVBase+i)
	copy(dst[8:], "scanpair")
	return dst[:]
}

// loadScanPairs stores n varlen pairs and n byte-key pairs, each with a
// 256-byte value, in a shuffled order: a scan's records lie scattered over
// the value log, as they do after any overwrite traffic, not in key order.
func loadScanPairs(tb testing.TB, ss *Session, n int) {
	tb.Helper()
	val := bytes.Repeat([]byte("s"), 256)
	var kb [16]byte
	for _, i := range rand.New(rand.NewPCG(3, 4)).Perm(n) {
		i := uint64(i)
		if err := ss.PutBytes(scanBytesBase+i, val); err != nil {
			tb.Fatal(err)
		}
		if err := ss.PutKV(scanKVKey(&kb, i), val); err != nil {
			tb.Fatal(err)
		}
	}
}

// scanBenchKeys is the benchmarks' keys per family.
const scanBenchKeys = 100_000

// benchScan times 16-pair scans from uniformly random start keys over
// scanBenchKeys pairs per family, and reports the value-log records each
// call resolved: ScanBytes resolves the pairs it returns, ScanKV every
// bucket of the first tree page it collects on each shard.
func benchScan(b *testing.B, scan func(ss *Session, from uint64, fn func() bool) error) {
	st, err := Open(Options{ShardSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	loadScanPairs(b, ss, scanBenchKeys)
	rng := rand.New(rand.NewPCG(1, 2))
	pairs := 0
	count := func() bool { pairs++; return true }
	reads := ss.recordReads
	b.ResetTimer()
	for range b.N {
		if err := scan(ss, uint64(rng.IntN(scanBenchKeys-16)), count); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if pairs != 16*b.N {
		b.Fatalf("%d pairs in %d scans, want 16 each", pairs, b.N)
	}
	b.ReportMetric(float64(ss.recordReads-reads)/float64(b.N), "records/op")
}

// BenchmarkScanBytes: a 16-pair ScanBytes over 256-byte values.
func BenchmarkScanBytes(b *testing.B) {
	benchScan(b, func(ss *Session, from uint64, fn func() bool) error {
		return ss.ScanBytes(scanBytesBase+from, scanBytesBase+scanBenchKeys-1, 16,
			func(uint64, []byte) bool { return fn() })
	})
}

// BenchmarkScanKV: a 16-pair ScanKV over 256-byte values.
func BenchmarkScanKV(b *testing.B) {
	var lo [16]byte
	benchScan(b, func(ss *Session, from uint64, fn func() bool) error {
		return ss.ScanKV(scanKVKey(&lo, from), nil, 16, func([]byte, []byte) bool { return fn() })
	})
}
