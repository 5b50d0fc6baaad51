package server

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/store"
	"repro/wire"
)

// testServer stands up a store and a server on a loopback listener.
type testServer struct {
	st   *store.Store
	srv  *Server
	addr string
	done chan error
}

func startServer(t *testing.T, sopts store.Options, opts Options) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, ln, sopts, opts)
}

// startServerOn serves on any listener; Serve takes what it is given.
func startServerOn(t *testing.T, ln net.Listener, sopts store.Options, opts Options) *testServer {
	t.Helper()
	if sopts.Shards == 0 {
		sopts.Shards = 4
	}
	if sopts.ShardSize == 0 {
		sopts.ShardSize = 32 << 20
	}
	st, err := store.Open(sopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, opts)
	ts := &testServer{st: st, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { ts.done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		st.Close()
		if err := <-ts.done; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return ts
}

func TestRoundTrip(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put(context.Background(), 42, 1000); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(context.Background(), 42)
	if err != nil || !ok || v != 1000 {
		t.Fatalf("Get(42) = (%d,%v,%v), want (1000,true,nil)", v, ok, err)
	}
	if _, ok, err := c.Get(context.Background(), 43); err != nil || ok {
		t.Fatalf("Get(43) hit on absent key (err=%v)", err)
	}
	if ok, err := c.Delete(context.Background(), 42); err != nil || !ok {
		t.Fatalf("Delete(42) = (%v,%v)", ok, err)
	}
	if ok, err := c.Delete(context.Background(), 42); err != nil || ok {
		t.Fatalf("double Delete(42) = (%v,%v)", ok, err)
	}

	// Batch + ordered scan across shards.
	var pairs []client.KV
	for i := uint64(1); i <= 500; i++ {
		pairs = append(pairs, client.KV{Key: i * 3, Val: i})
	}
	if err := c.PutBatch(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	got, err := c.Scan(context.Background(), 0, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("scan returned %d pairs, want 500", len(got))
	}
	for i, kv := range got {
		if kv.Key != uint64(i+1)*3 || kv.Val != uint64(i+1) {
			t.Fatalf("scan[%d] = %+v, want key %d val %d", i, kv, (i+1)*3, i+1)
		}
	}
	// Scan cap truncates.
	capped, err := c.Scan(context.Background(), 0, ^uint64(0), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 10 {
		t.Fatalf("capped scan returned %d pairs, want 10", len(capped))
	}

	stats := ts.srv.Stats()
	if stats.Ops == 0 || stats.ConnsLive == 0 || stats.BytesIn == 0 || stats.BytesOut == 0 {
		t.Fatalf("implausible server stats: %+v", stats)
	}
}

// TestPipelined issues a window of async calls before waiting on any of
// them, so correctness of the id-matching (not just FIFO luck) is what
// passes the test.
func TestPipelined(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 2000
	puts := make([]*client.Call, n)
	for i := 0; i < n; i++ {
		puts[i] = c.PutAsync(uint64(i+1), uint64(i)*7)
	}
	for i, call := range puts {
		if err := call.Wait(); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	gets := make([]*client.Call, n)
	for i := 0; i < n; i++ {
		gets[i] = c.GetAsync(uint64(i + 1))
	}
	for i, call := range gets {
		if err := call.Wait(); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if call.Resp.Status != wire.StatusOK || call.Resp.Val != uint64(i)*7 {
			t.Fatalf("get %d: status %v val %d, want OK %d",
				i, call.Resp.Status, call.Resp.Val, uint64(i)*7)
		}
	}
}

// TestConcurrentClients drives many goroutines over a small connection pool
// and several independent connections at once (run under -race in CI).
func TestConcurrentClients(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	pool, err := client.DialPool(ts.addr, 4, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := uint64(g) << 32
			for i := uint64(0); i < perG; i++ {
				k := base | i
				if err := pool.Conn().Put(context.Background(), k, k^0xbeef); err != nil {
					t.Errorf("Put(%d): %v", k, err)
					return
				}
				// Read-your-writes through any pooled connection:
				// the server acked the put before replying.
				if v, ok, err := pool.Conn().Get(context.Background(), k); err != nil || !ok || v != k^0xbeef {
					t.Errorf("Get(%d) = (%d,%v,%v)", k, v, ok, err)
					return
				}
				if rng.Intn(8) == 0 {
					if _, err := pool.Conn().Delete(context.Background(), k); err != nil {
						t.Errorf("Delete(%d): %v", k, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if stats := ts.srv.Stats(); stats.ConnsTotal < 4 {
		t.Fatalf("ConnsTotal = %d, want >= 4", stats.ConnsTotal)
	}
}

// TestGracefulShutdown checks the drain contract end to end: every put the
// server acknowledged before Shutdown must be durable in the store after
// Shutdown returns, and a following Store.Close must not race anything.
func TestGracefulShutdown(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A pipelined burst, some of which will be in flight when Shutdown
	// lands.
	const n = 3000
	calls := make([]*client.Call, n)
	for i := 0; i < n; i++ {
		calls[i] = c.PutAsync(uint64(i+1), uint64(i+1))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	acked := 0
	for _, call := range calls {
		if call.Wait() == nil {
			acked++
		}
	}
	t.Logf("%d/%d puts acknowledged across the shutdown", acked, n)

	// The store is all ours now: every acked put must be present. (Puts
	// the server never read off the socket are simply absent; puts it
	// answered are durable.)
	ss := ts.st.NewSession()
	defer ss.Close()
	count, err := ss.Len()
	if err != nil {
		t.Fatal(err)
	}
	if count < acked {
		t.Fatalf("store holds %d keys, but %d puts were acknowledged", count, acked)
	}
	// New connections must be refused.
	if c2, err := client.Dial(ts.addr, client.Options{}); err == nil {
		// Dial may succeed if the OS queues it; the first call must fail.
		if err := c2.Put(context.Background(), 1, 1); err == nil {
			t.Fatal("post-shutdown connection served a request")
		}
		c2.Close()
	}
	if err := ts.st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeAfterStoreCloseReportsClosed covers the wrong-order teardown: if
// the store closes under a live server, requests answer StatusClosed
// (client.ErrStoreClosed) instead of tearing connections or panicking.
func TestServeAfterStoreCloseReportsClosed(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), 7, 7); err != nil {
		t.Fatal(err)
	}
	if err := ts.st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), 8, 8); !errors.Is(err, client.ErrStoreClosed) {
		t.Fatalf("Put after store close: %v, want ErrStoreClosed", err)
	}
	if _, _, err := c.Get(context.Background(), 7); !errors.Is(err, client.ErrStoreClosed) {
		t.Fatalf("Get after store close: %v, want ErrStoreClosed", err)
	}
	// The connection survives; a fresh session on the server side would
	// also survive (NewSession is panic-free on closed stores).
	if err := c.Err(); err != nil {
		t.Fatalf("connection died with the store: %v", err)
	}
}

// rawFrame puts a valid frame header (length + CRC-32C) on any body.
func rawFrame(body []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, body...)
}

// TestMalformedFrame checks the protocol-error path: a garbage frame gets a
// best-effort error response and the connection is cut. The retired
// opcode 6 (the Stats frame) gets exactly what an unknown opcode gets.
func TestMalformedFrame(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	for _, op := range []byte{0xee, 6} {
		nc, err := net.Dial("tcp", ts.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// Valid frame header (length + CRC), body with an unknown opcode.
		if _, err := nc.Write(rawFrame(append(make([]byte, 8), op))); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		respBody, err := wire.ReadFrame(nc, wire.MaxFrame, nil)
		if err != nil {
			t.Fatalf("op %d: no error response: %v", op, err)
		}
		resp, err := wire.DecodeResponse(respBody)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusErr {
			t.Fatalf("op %d: status = %v, want StatusErr", op, resp.Status)
		}
		// The server hangs up after a framing error.
		if _, err := wire.ReadFrame(nc, wire.MaxFrame, nil); err == nil {
			t.Fatalf("op %d: connection still open after protocol error", op)
		}
	}
}

// TestOversizedFrameRejected: a length prefix beyond MaxFrame never
// allocates; the connection just dies.
func TestOversizedFrameRejected(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(nc, wire.MaxFrame, nil); err == nil {
		t.Fatal("connection survived an oversized frame header")
	}
}
