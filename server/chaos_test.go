package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/netfault"
	"repro/store"
	"repro/wire"
)

// chaosServer stands up a server whose listener injects faults into every
// accepted connection. Unlike startServer it leaves store teardown to the
// test, so the test can Reopen the pools afterwards.
func chaosServer(t *testing.T, faults netfault.Options) (st *store.Store, srv *Server, addr string) {
	t.Helper()
	st, err := store.Open(store.Options{Shards: 4, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv = New(st, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(netfault.WrapListener(ln, faults)) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil && !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return st, srv, ln.Addr().String()
}

// TestChaosNoLostAckedWrites is the core torture test: a server whose
// network stalls, fragments, corrupts, and resets connections mid-frame
// serves writers that reconnect and push on. The invariant under all of it:
// a write the client saw acknowledged is durable — after draining the
// server and reopening the store from its pools, every acked key resolves
// to its exact value. (Un-acked writes may or may not have landed; that is
// the client's known-unknown, not a durability hole.)
func TestChaosNoLostAckedWrites(t *testing.T) {
	// PartialProb 1.0 makes the fault schedule byte-driven: every read is
	// fragmented (≤4KiB per op, see netfault's fragment cap), so a burst's
	// I/O op count scales with its byte volume no matter how the kernel or
	// bufio happens to coalesce — and ResetAfter then fires mid-burst on
	// every connection instead of depending on buffer luck.
	st, srv, addr := chaosServer(t, netfault.Options{
		Seed:        1234,
		PartialProb: 1.0,
		StallEvery:  97,
		StallFor:    2 * time.Millisecond,
		CorruptProb: 0.01,
		ResetAfter:  100, // ~200KiB in: every connection dies mid-burst
	})

	// 1 KiB values keyed by content: enough byte volume per burst that the
	// per-I/O-op fault schedule (resets, corruption) fires reliably, and
	// the value log — not just the tree — is under test.
	bval := func(k uint64) []byte {
		v := make([]byte, 1024)
		for i := range v {
			v[i] = byte(uint64(i) * k)
		}
		return v
	}
	acked := map[uint64]struct{}{}
	var key uint64
	failed := 0
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) && len(acked) < 2000 {
		c, err := client.Dial(addr, client.Options{CallTimeout: 3 * time.Second})
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var calls []*client.Call
		var keys []uint64
		for i := 0; i < 300; i++ {
			key++
			calls = append(calls, c.PutBytesAsync(key, bval(key)))
			keys = append(keys, key)
		}
		for i, call := range calls {
			if call.Wait() == nil {
				acked[keys[i]] = struct{}{}
			} else {
				failed++
			}
		}
		c.Close()
	}
	if len(acked) < 100 {
		t.Fatalf("only %d writes acked in 8s; the fault schedule starved the test", len(acked))
	}
	if failed == 0 {
		t.Fatal("no write ever failed; the fault schedule never fired and the test proved nothing")
	}
	t.Logf("%d writes acked, %d failed through the hostile network (last key %d)",
		len(acked), failed, key)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: %v", err)
	}
	pools := st.Pools()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Reopen(pools, store.Options{})
	if err != nil {
		t.Fatalf("Reopen after chaos run: %v", err)
	}
	defer re.Close()
	ss := re.NewSession()
	defer ss.Close()
	for k := range acked {
		v, ok, err := ss.GetBytes(k, nil)
		if err != nil || !ok || !bytes.Equal(v, bval(k)) {
			t.Fatalf("acked write lost or damaged: key %d (ok=%v, err=%v)", k, ok, err)
		}
	}
}

// TestChaosClientSideFaults puts the fault layer on the client's own
// transport via the Dial hook and pins three promises: calls never hang
// (CallTimeout and terminal conn errors bound every wait), every failure is
// classified Retryable (the server answered nothing wrongly), and response
// corruption is always caught at frame decode — a successful Get NEVER
// carries a wrong value, and at least one connection dies with the
// checksum error.
func TestChaosClientSideFaults(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})

	clean, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 300
	for k := uint64(1); k <= keys; k++ {
		if err := clean.Put(context.Background(), k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	clean.Close()

	var seed atomic.Int64
	seed.Store(4242)
	chaosDial := func(addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return netfault.WrapConn(nc, netfault.Options{
			Seed:        seed.Add(1),
			PartialProb: 0.3,
			StallEvery:  41,
			StallFor:    time.Millisecond,
			CorruptProb: 0.05,
			ResetAfter:  500,
		}), nil
	}

	sawCorrupt := false
	deadline := time.Now().Add(8 * time.Second)
	for round := 0; time.Now().Before(deadline); round++ {
		c, err := client.Dial(ts.addr, client.Options{
			CallTimeout: time.Second,
			Dial:        chaosDial,
		})
		if err != nil {
			continue
		}
		calls := make([]*client.Call, keys)
		for k := uint64(1); k <= keys; k++ {
			calls[k-1] = c.GetAsync(k)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, call := range calls {
				call.Wait()
			}
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("pending calls hung on a faulty connection")
		}
		for i, call := range calls {
			k := uint64(i + 1)
			switch {
			case call.Err == nil:
				if call.Resp.Status != wire.StatusOK || call.Resp.Val != k*7 {
					t.Fatalf("corruption slipped past the frame checksum: Get(%d) = status %v val %d",
						k, call.Resp.Status, call.Resp.Val)
				}
			case !client.Retryable(call.Err):
				t.Fatalf("Get(%d) failed non-retryably under transport faults: %v", k, call.Err)
			}
		}
		if err := c.Err(); err != nil && errors.Is(err, wire.ErrMalformed) {
			sawCorrupt = true
		}
		c.Close()
		if sawCorrupt && round >= 3 {
			break
		}
	}
	if !sawCorrupt {
		t.Fatal("no connection ever died of frame corruption; CorruptProb=0.05 schedule never fired?")
	}
}

// heldListener hands the server connections whose reads block until the
// server closes them, so no request is read and every call issued before
// an abort is still in flight when it lands. A background copy drains
// what the client sends, so the client's writes never stall on a full
// socket buffer. accepted receives one value per accepted connection.
type heldListener struct {
	net.Listener
	accepted chan struct{}
}

func (l heldListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	go io.Copy(io.Discard, nc)
	l.accepted <- struct{}{}
	return &heldConn{Conn: nc, closed: make(chan struct{})}, nil
}

type heldConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *heldConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *heldConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestServerDeathFailsPendingCalls kills the server while a deep pipeline
// of calls is in flight and asserts the client contract on the wreckage:
// every pending Call completes (with nil or a terminal error) well inside
// the call deadline, and afterwards the client side leaks no goroutines.
// The server reads nothing before the abort (heldListener), so the calls
// are in flight by construction, not by winning a race.
func TestServerDeathFailsPendingCalls(t *testing.T) {
	before := runtime.NumGoroutine()

	st, err := store.Open(store.Options{Shards: 4, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{})
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := heldListener{Listener: tcp, accepted: make(chan struct{}, 1)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String(), client.Options{CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	<-ln.accepted
	const n = 5000
	calls := make([]*client.Call, n)
	for i := 0; i < n; i++ {
		calls[i] = c.PutAsync(uint64(i+1), uint64(i+1))
	}
	// Abortive close mid-pipeline: no drain, connections just die.
	srv.Close()
	if err := <-done; err != nil && !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}

	completed := make(chan struct{})
	go func() {
		defer close(completed)
		for _, call := range calls {
			call.Wait()
		}
	}()
	select {
	case <-completed:
	case <-time.After(10 * time.Second):
		t.Fatal("pending calls did not complete within the deadline after server death")
	}
	failed := 0
	for _, call := range calls {
		if call.Err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("server died mid-pipeline yet every call succeeded; the abort never happened")
	}
	t.Logf("%d/%d pending calls failed terminally", failed, n)

	c.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything above joined its goroutines; give stragglers (timer
	// callbacks, netpoller wakeups) a moment, then require the count back
	// at (or below) the baseline plus slack.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after server death: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosNoLostAckedByteKeys is the byte-key torture variant of
// TestChaosNoLostAckedWrites: writers push prefix-colliding byte-string
// keys through a network that fragments, stalls, corrupts, and resets
// connections mid-frame, reconnecting and pushing on. The invariant is
// identical — an acked PutKV survives server drain and store Reopen
// byte-exact — but the write path under test is the bucket rewrite
// (read-modify-write of a shared per-prefix record), so a torn rewrite or
// a lost colliding sibling would surface here even if single-key puts are
// solid.
func TestChaosNoLostAckedByteKeys(t *testing.T) {
	st, srv, addr := chaosServer(t, netfault.Options{
		Seed:        4321,
		PartialProb: 1.0,
		StallEvery:  97,
		StallFor:    2 * time.Millisecond,
		CorruptProb: 0.01,
		ResetAfter:  100,
	})

	// Key n lands in collision family n/3: every bucket holds up to three
	// keys, so most acked writes rewrote a record other keys live in.
	bkey := func(n uint64) []byte {
		return []byte(fmt.Sprintf("chaosfam-%05d-%c", n/3, 'a'+n%3))
	}
	bval := func(n uint64) []byte {
		v := make([]byte, 700)
		for i := range v {
			v[i] = byte(uint64(i)*n + n>>8)
		}
		return v
	}
	acked := map[uint64]struct{}{}
	var key uint64
	failed := 0
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) && len(acked) < 2000 {
		c, err := client.Dial(addr, client.Options{CallTimeout: 3 * time.Second})
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var calls []*client.Call
		var keys []uint64
		for i := 0; i < 300; i++ {
			key++
			calls = append(calls, c.PutKVAsync(bkey(key), bval(key)))
			keys = append(keys, key)
		}
		for i, call := range calls {
			if call.Wait() == nil {
				acked[keys[i]] = struct{}{}
			} else {
				failed++
			}
		}
		c.Close()
	}
	if len(acked) < 100 {
		t.Fatalf("only %d writes acked in 8s; the fault schedule starved the test", len(acked))
	}
	if failed == 0 {
		t.Fatal("no write ever failed; the fault schedule never fired and the test proved nothing")
	}
	t.Logf("%d byte-key writes acked, %d failed through the hostile network", len(acked), failed)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: %v", err)
	}
	pools := st.Pools()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Reopen(pools, store.Options{})
	if err != nil {
		t.Fatalf("Reopen after chaos run: %v", err)
	}
	defer re.Close()
	ss := re.NewSession()
	defer ss.Close()
	for k := range acked {
		v, ok, err := ss.GetKV(bkey(k), nil)
		if err != nil || !ok || !bytes.Equal(v, bval(k)) {
			t.Fatalf("acked byte-key write lost or damaged: %q (ok=%v, err=%v)", bkey(k), ok, err)
		}
	}
	// The reopened tree must also still scan coherently: every key seen is
	// well-formed and in order (acked ⊆ scanned is implied by the gets).
	var prev []byte
	n := 0
	err = ss.ScanKV(nil, nil, 0, func(k, v []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("post-chaos scan out of order at %q", k)
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if err != nil || n < len(acked)/3 {
		t.Fatalf("post-chaos scan: %d keys, err=%v", n, err)
	}
}
