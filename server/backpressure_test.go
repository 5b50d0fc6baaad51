package server

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/store"
	"repro/wire"
)

// pipeListener is an in-memory net.Listener: dial hands the server one end
// of a net.Pipe. A pipe has no buffer — a Write completes only as the peer
// Reads — so a peer that stops reading blocks the server's Write at once,
// where a kernel socket would first soak up megabytes (and the test would
// sleep while it does).
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial connects a raw peer and returns its end plus a tap on the server's.
func (l *pipeListener) dial(t *testing.T) (net.Conn, *tapConn) {
	t.Helper()
	peer, srv := net.Pipe()
	tap := &tapConn{Conn: srv}
	select {
	case l.conns <- tap:
		return peer, tap
	case <-l.done:
		t.Fatal("dial on a closed pipe listener")
		return nil, nil
	}
}

// client connects a client.Conn through the listener.
func (l *pipeListener) client(t *testing.T) *client.Conn {
	t.Helper()
	c, err := client.Dial("pipe", client.Options{
		Dial: func(string, time.Duration) (net.Conn, error) {
			peer, _ := l.dial(t)
			return peer, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tapConn is the server's end of a pipe. It records the size of every Write
// the server issues and whether one is outstanding.
type tapConn struct {
	net.Conn
	writing atomic.Int32
	mu      sync.Mutex
	writes  []int
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, len(b))
	c.mu.Unlock()
	c.writing.Add(1)
	defer c.writing.Add(-1)
	return c.Conn.Write(b)
}

func (c *tapConn) writeSizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.writes...)
}

// waitWedged returns once the connection behind tap is stuck: a Write is
// outstanding and the server's Ops count has stopped advancing.
func waitWedged(t *testing.T, srv *Server, tap *tapConn) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tap.writing.Load() > 0 {
			ops := srv.Stats().Ops
			time.Sleep(20 * time.Millisecond)
			if tap.writing.Load() > 0 && srv.Stats().Ops == ops {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedge never formed: %d ops served, write outstanding: %v",
				srv.Stats().Ops, tap.writing.Load() > 0)
		}
		time.Sleep(time.Millisecond)
	}
}

// writeUntilBlocked pumps identical frames into nc until a write deadline
// fires (the server has stopped reading), returning the total bytes written
// — including a possible partial trailing frame. frame must be one complete
// encoded request.
func writeUntilBlocked(t *testing.T, nc net.Conn, frame []byte, limit int) int {
	t.Helper()
	chunk := make([]byte, 0, 1024*len(frame))
	for i := 0; i < 1024; i++ {
		chunk = append(chunk, frame...)
	}
	total := 0
	for total < limit {
		nc.SetWriteDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := nc.Write(chunk)
		total += n
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return total
			}
			t.Fatalf("slow client write: %v", err)
		}
	}
	t.Fatalf("wrote %d bytes without ever blocking; backpressure never engaged", total)
	return total
}

// TestSlowClientBackpressure wedges one connection — a client that sends
// Get requests until it cannot and never reads a response — and checks the
// promises the one-goroutine connection makes about it: what it pins on the
// server is bounded by one batch and one slab (everything else backs up in
// the peer), other connections keep being served at full speed, it gets
// every response once it drains, and a graceful Shutdown then completes.
func TestSlowClientBackpressure(t *testing.T) {
	ln := newPipeListener()
	ts := startServerOn(t, ln, store.Options{}, Options{})

	slow, tap := ln.dial(t)
	defer slow.Close()

	// One Get of an absent key: a 25-byte frame in, an 18-byte NotFound
	// frame out, every time.
	frame, err := wire.AppendRequest(nil, &wire.Request{ID: 7, Op: wire.OpGet, Key: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	const respLen = wire.FrameHdrSize + 10
	written := writeUntilBlocked(t, slow, frame, 512<<20)
	fullFrames := written / len(frame)
	if fullFrames <= maxIngest {
		t.Fatalf("only %d frames written before blocking; cannot have filled a batch", fullFrames)
	}
	waitWedged(t, ts.srv, tap)
	t.Logf("slow client wedged after %d bytes (%d frames)", written, fullFrames)

	// Bounded footprint, asserted: of the frames the server decoded, the
	// responses not yet handed to the peer are at most one batch, and in
	// bytes at most one slab plus one response. The rest of what the peer
	// sent is raw bytes in the read buffer, or still in the peer.
	st := ts.srv.Stats()
	decoded := int(st.BytesIn) / len(frame)
	if held := decoded - int(st.BytesOut)/respLen; held > maxIngest {
		t.Fatalf("server holds %d decoded-but-unwritten requests, want <= %d", held, maxIngest)
	}
	if held := int(st.Ops)*respLen - int(st.BytesOut); held > slabFlush+respLen {
		t.Fatalf("server holds %d unwritten response bytes, want <= %d", held, slabFlush+respLen)
	}

	// The wedged connection must not stall anyone else.
	c := ln.client(t)
	defer c.Close()
	start := time.Now()
	for i := uint64(1); i <= 500; i++ {
		if err := c.Put(context.Background(), i, i*3); err != nil {
			t.Fatalf("healthy conn Put while peer wedged: %v", err)
		}
		if v, ok, err := c.Get(context.Background(), i); err != nil || !ok || v != i*3 {
			t.Fatalf("healthy conn Get(%d) = (%d,%v,%v)", i, v, ok, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("healthy conn needed %v for 1000 ops next to a wedged peer", elapsed)
	}

	// Drain the slow client: every fully-written frame gets its response
	// once the peer reads again. The trailing partial frame (if any) gets
	// nothing — the server is still waiting for its remainder.
	want := fullFrames * respLen
	got := 0
	buf := make([]byte, 64<<10)
	for got < want {
		slow.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := slow.Read(buf)
		got += n
		if err != nil {
			t.Fatalf("draining slow client after %d/%d bytes: %v", got, want, err)
		}
	}
	if got != want {
		t.Fatalf("slow client drained %d response bytes, want %d", got, want)
	}

	// With the slow client drained, graceful shutdown completes: both
	// connections sit in a read, which the drain deadlines out.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown next to drained slow client: %v", err)
	}
	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	if rest, err := io.ReadAll(slow); err != nil || len(rest) != 0 {
		t.Fatalf("slow client final read: %d bytes, %v; want a clean EOF", len(rest), err)
	}
}

// TestShutdownAbortsWedgedClient: a client that never drains its responses
// wedges its connection in a Write for good, so graceful shutdown cannot
// finish on its own — the expiring context must abort the connection and
// still leave the server fully torn down. Until then the dead peer pins one
// batch and one slab, whatever it asked for.
func TestShutdownAbortsWedgedClient(t *testing.T) {
	ln := newPipeListener()
	ts := startServerOn(t, ln, store.Options{}, Options{})

	// Store one value near the frame cap; each GetV response carries it.
	c := ln.client(t)
	big := make([]byte, 600<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.PutBytes(context.Background(), 77, big); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// The loader's handler must be gone before the baseline is read: it
	// counts a response's bytes after the Write that delivered it.
	for deadline := time.Now().Add(5 * time.Second); ts.srv.Stats().ConnsLive != 0; {
		if time.Now().After(deadline) {
			t.Fatal("loader connection never closed")
		}
		time.Sleep(time.Millisecond)
	}
	base := ts.srv.Stats()

	slow, tap := ln.dial(t)
	defer slow.Close()
	var out []byte
	var err error
	for i := uint64(1); i <= 200; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{ID: i, Op: wire.OpGetV, Key: 77})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := slow.Write(out); err != nil {
		t.Fatal(err)
	}
	waitWedged(t, ts.srv, tap)

	// 200 requests for 600 KiB each are on the server; what it holds for
	// them is at most one batch of decoded requests and, in encoded
	// responses, one slab plus one response — not 200 x 600 KiB.
	st := ts.srv.Stats()
	frameLen := len(out) / 200
	decoded := int(st.BytesIn-base.BytesIn) / frameLen
	served := int(st.Ops - base.Ops)
	if decoded > maxIngest || served > decoded {
		t.Fatalf("decoded %d requests and served %d for a peer that reads nothing, want <= %d",
			decoded, served, maxIngest)
	}
	respLen := len(big) + 64
	if st.BytesOut != base.BytesOut {
		t.Fatalf("BytesOut advanced by %d for a peer that reads nothing", st.BytesOut-base.BytesOut)
	}
	if held := served * respLen; held > slabFlush+respLen {
		t.Fatalf("server encoded ~%d response bytes for a dead peer, want <= %d", held, slabFlush+respLen)
	}
	for _, n := range tap.writeSizes() {
		if n > slabFlush+respLen {
			t.Fatalf("a single Write of %d bytes, want <= %d", n, slabFlush+respLen)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if live := ts.srv.Stats().ConnsLive; live != 0 {
		t.Fatalf("%d connections live after an aborting Shutdown", live)
	}
}

// TestWriteIdleTimeout: Options.IdleTimeout also bounds the write side. A
// peer that asks for a large value and then never reads blocks its
// connection's Write; the deadline cuts it, counted in IdleCloses, while a
// neighbour that keeps talking is untouched.
func TestWriteIdleTimeout(t *testing.T) {
	const idle = 300 * time.Millisecond
	ln := newPipeListener()
	ts := startServerOn(t, ln, store.Options{}, Options{IdleTimeout: idle})

	busy := ln.client(t)
	defer busy.Close()
	big := make([]byte, 256<<10)
	if err := busy.PutBytes(context.Background(), 9, big); err != nil {
		t.Fatal(err)
	}

	stalled, _ := ln.dial(t)
	defer stalled.Close()
	var out []byte
	var err error
	for i := uint64(1); i <= 8; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{ID: i, Op: wire.OpGetV, Key: 9})
		if err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if _, err := stalled.Write(out); err != nil {
		t.Fatal(err)
	}

	// The neighbour pings well inside the timeout while the stalled peer's
	// deadline runs out.
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(0); ts.srv.Stats().IdleCloses == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("a peer that never reads was never cut")
		}
		if err := busy.Put(context.Background(), 2, i); err != nil {
			t.Fatalf("active conn cut next to a stalled reader on ping %d: %v", i, err)
		}
		time.Sleep(idle / 10)
	}
	if cut := time.Since(start); cut < idle || cut > 5*idle {
		t.Errorf("stalled reader cut after %v, want about %v", cut, idle)
	}
	// The cut is a close: the peer, reading at last, finds EOF and not a
	// byte of the response that never fit.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := stalled.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("stalled peer read (%d, %v), want (0, EOF)", n, err)
	}
	if err := busy.Put(context.Background(), 3, 3); err != nil {
		t.Fatalf("active conn after the neighbour's cut: %v", err)
	}
	if st := ts.srv.Stats(); st.IdleCloses != 1 || st.ConnsLive != 1 {
		t.Fatalf("IdleCloses = %d, ConnsLive = %d after one write-idle cut; want 1, 1", st.IdleCloses, st.ConnsLive)
	}
}

// TestResponseIDsSurviveWedge sanity-checks the drain math above: a burst
// written in one go round-trips intact frames whose ids echo back exactly.
func TestResponseIDsSurviveWedge(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const n = 100
	var out []byte
	for i := uint64(1); i <= n; i++ {
		out, err = wire.AppendRequest(out, &wire.Request{ID: i, Op: wire.OpGet, Key: i})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	r := io.Reader(nc)
	for i := 0; i < n; i++ {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		body, err := wire.ReadFrame(r, wire.MaxFrame, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusNotFound {
			t.Fatalf("id %d: status %v, want NotFound", resp.ID, resp.Status)
		}
		if seen[resp.ID] || resp.ID == 0 || resp.ID > n {
			t.Fatalf("bad or duplicate response id %d", resp.ID)
		}
		seen[resp.ID] = true
	}
}
