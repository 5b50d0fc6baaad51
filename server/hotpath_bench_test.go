package server

import (
	"testing"

	"repro/store"
	"repro/wire"
)

// The serve+encode hot path — what a connection's loop does per request,
// minus the socket — must stay allocation-free in steady state for Get and
// Scan: that is what keeps the server's read throughput GC-quiet.

func newServePath(tb testing.TB, nKeys int) (*conn, *store.Session, []uint64) {
	tb.Helper()
	st, err := store.Open(store.Options{Shards: 4, ShardSize: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	ss := st.NewSession()
	tb.Cleanup(ss.Close)
	keys := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 1
		if err := ss.Put(keys[i], keys[i]^0xbeef); err != nil {
			tb.Fatal(err)
		}
	}
	s := New(st, Options{})
	return newConn(s, nil), ss, keys
}

// serveEncode runs one request through serveOne — serve, the stage
// instrumentation (so the alloc pins cover the metrics record path) and the
// encode into the connection's slab — then empties the slab the way a
// flush does, and returns the status byte of the frame it encoded.
func serveEncode(c *conn, ss *store.Session, req *wire.Request) wire.Status {
	c.serveOne(ss, req, c.srv.mnow())
	st := wire.Status(c.slab[wire.FrameHdrSize+9])
	c.resetSlab()
	return st
}

func BenchmarkServeGet(b *testing.B) {
	c, ss, keys := newServePath(b, 20000)
	req := wire.Request{ID: 1, Op: wire.OpGet}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Key = keys[i%len(keys)]
		if st := serveEncode(c, ss, &req); st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

func BenchmarkServeScan(b *testing.B) {
	c, ss, _ := newServePath(b, 20000)
	req := wire.Request{ID: 1, Op: wire.OpScan, Lo: 0, Hi: ^uint64(0), Max: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := serveEncode(c, ss, &req); st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

// newServePathV preloads varlen values for the varlen serve benchmarks.
func newServePathV(tb testing.TB, nKeys, valSize int) (*conn, *store.Session, []uint64) {
	tb.Helper()
	st, err := store.Open(store.Options{Shards: 4, ShardSize: 64 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	ss := st.NewSession()
	tb.Cleanup(ss.Close)
	keys := make([]uint64, nKeys)
	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte(i)
	}
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 1
		if err := ss.PutBytes(keys[i], val); err != nil {
			tb.Fatal(err)
		}
	}
	s := New(st, Options{})
	return newConn(s, nil), ss, keys
}

func BenchmarkServeGetV(b *testing.B) {
	c, ss, keys := newServePathV(b, 20000, 128)
	req := wire.Request{ID: 1, Op: wire.OpGetV}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Key = keys[i%len(keys)]
		if st := serveEncode(c, ss, &req); st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

func BenchmarkServePutV(b *testing.B) {
	c, ss, keys := newServePathV(b, 20000, 128)
	val := make([]byte, 128)
	req := wire.Request{ID: 1, Op: wire.OpPutV, VVal: val}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Key = keys[i%len(keys)]
		if st := serveEncode(c, ss, &req); st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

func BenchmarkServeScanV(b *testing.B) {
	c, ss, _ := newServePathV(b, 20000, 128)
	req := wire.Request{ID: 1, Op: wire.OpScanV, Lo: 0, Hi: ^uint64(0), Max: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := serveEncode(c, ss, &req); st != wire.StatusOK {
			b.Fatalf("status %v", st)
		}
	}
}

// TestServeVarlenAllocDiscipline bounds the varlen serve+encode path: all
// buffers (value arena, pair slices, slab) are the connection's own, so the only
// steady-state allocations allowed are the small constant ones the scan
// callback needs — never per-byte or per-pair costs. GetV, whose path has
// no closure, must stay allocation-free like the fixed ops.
func TestServeVarlenAllocDiscipline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is checked in non-race runs")
	}
	c, ss, keys := newServePathV(t, 5000, 256)

	get := wire.Request{ID: 1, Op: wire.OpGetV, Key: keys[0]}
	serveEncode(c, ss, &get) // warm-up: sizes buffers
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		get.Key = keys[i%len(keys)]
		i++
		if st := serveEncode(c, ss, &get); st != wire.StatusOK {
			t.Fatalf("status %v", st)
		}
	}); allocs != 0 {
		t.Errorf("GetV serve+encode allocs/op = %v, want 0", allocs)
	}

	scan := wire.Request{ID: 2, Op: wire.OpScanV, Lo: 0, Hi: ^uint64(0), Max: 64}
	serveEncode(c, ss, &scan) // warm-up
	if allocs := testing.AllocsPerRun(100, func() {
		if st := serveEncode(c, ss, &scan); st != wire.StatusOK {
			t.Fatalf("status %v", st)
		}
	}); allocs > 3 {
		t.Errorf("ScanV serve+encode allocs/op = %v, want <= 3 (constant, not per-pair)", allocs)
	}
}

// TestServeReadPathAllocs is the regression gate on the zero-allocation
// contract: steady-state Get and Scan must not touch the heap anywhere in
// serve+encode.
func TestServeReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is checked in non-race runs")
	}
	c, ss, keys := newServePath(t, 5000)

	get := wire.Request{ID: 1, Op: wire.OpGet, Key: keys[0]}
	serveEncode(c, ss, &get) // warm-up: sizes buffers
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		get.Key = keys[i%len(keys)]
		i++
		if st := serveEncode(c, ss, &get); st != wire.StatusOK {
			t.Fatalf("status %v", st)
		}
	}); allocs != 0 {
		t.Errorf("Get serve+encode allocs/op = %v, want 0", allocs)
	}

	scan := wire.Request{ID: 2, Op: wire.OpScan, Lo: 0, Hi: ^uint64(0), Max: 128}
	serveEncode(c, ss, &scan) // warm-up
	if allocs := testing.AllocsPerRun(100, func() {
		if st := serveEncode(c, ss, &scan); st != wire.StatusOK {
			t.Fatalf("status %v", st)
		}
	}); allocs != 0 {
		t.Errorf("Scan serve+encode allocs/op = %v, want 0", allocs)
	}
}
