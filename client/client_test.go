package client

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/wire"
)

// fakeServer accepts one connection and runs fn over it.
func fakeServer(t *testing.T, fn func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fn(nc)
	}()
	return ln.Addr().String()
}

// echoStatus reads requests and answers each with the given status.
func echoStatus(status wire.Status, msg string) func(nc net.Conn) {
	return func(nc net.Conn) {
		var scratch, out []byte
		for {
			body, err := wire.ReadFrame(nc, wire.MaxFrame, scratch)
			if err != nil {
				return
			}
			req, err := wire.DecodeRequest(body)
			if err != nil {
				return
			}
			scratch = body[:0]
			out, _ = wire.AppendResponse(out[:0], &wire.Response{
				ID: req.ID, Op: req.Op, Status: status, Msg: msg,
			})
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}
}

func TestRemoteErrorSurfaces(t *testing.T) {
	addr := fakeServer(t, echoStatus(wire.StatusErr, "arena exhausted"))
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Put(context.Background(), 1, 2)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "arena exhausted" || re.Op != wire.OpPut {
		t.Fatalf("err = %v, want RemoteError{Put, arena exhausted}", err)
	}
}

func TestStoreClosedSurfaces(t *testing.T) {
	addr := fakeServer(t, echoStatus(wire.StatusClosed, "store: closed"))
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Get(context.Background(), 1); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("err = %v, want ErrStoreClosed", err)
	}
}

// TestTxnIncompleteSurfaces: StatusTxnIncomplete maps to the dedicated
// ErrTxnIncomplete sentinel — never a generic *RemoteError, and never
// retryable: the transaction is already committed server-side, so a
// reissue would double-apply it.
func TestTxnIncompleteSurfaces(t *testing.T) {
	addr := fakeServer(t, echoStatus(wire.StatusTxnIncomplete, "store: committed transaction applied incompletely"))
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var tx Txn
	tx.Put(1, 2)
	err = c.CommitTxn(context.Background(), &tx)
	if !errors.Is(err, ErrTxnIncomplete) {
		t.Fatalf("err = %v, want ErrTxnIncomplete", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatalf("ErrTxnIncomplete degraded to RemoteError: %v", err)
	}
	if Retryable(err) {
		t.Fatal("committed-but-unapplied transaction classified retryable")
	}
}

// TestAbruptDisconnectFailsPending: when the server dies mid-pipeline,
// every outstanding Call completes with the transport error instead of
// hanging.
func TestAbruptDisconnectFailsPending(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		// Read one frame, then hang up with the response unsent.
		wire.ReadFrame(nc, wire.MaxFrame, nil)
	})
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	calls := make([]*Call, 50)
	for i := range calls {
		calls[i] = c.PutAsync(uint64(i), uint64(i))
	}
	for i, call := range calls {
		select {
		case <-call.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still pending after disconnect", i)
		}
		if call.Err == nil {
			t.Fatalf("call %d succeeded with no server response", i)
		}
	}
	if c.Err() == nil {
		t.Fatal("connection reports no terminal error")
	}
	// New calls fail fast on the dead connection.
	if err := c.Put(context.Background(), 9, 9); err == nil {
		t.Fatal("call on dead connection succeeded")
	}
}

// TestOversizedBatchFailsOnlyThatCall: an unencodable request must not
// take down the connection or any other in-flight call.
func TestOversizedBatchFailsOnlyThatCall(t *testing.T) {
	addr := fakeServer(t, echoStatus(wire.StatusOK, ""))
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := c.PutBatchAsync(make([]KV, wire.MaxPairs+1))
	if err := big.Wait(); !errors.Is(err, wire.ErrTooManyKV) {
		t.Fatalf("oversized batch: %v, want ErrTooManyKV", err)
	}
	// The connection is still healthy.
	if err := c.Put(context.Background(), 1, 2); err != nil {
		t.Fatalf("Put after oversized batch: %v", err)
	}
	// The chunking sync wrapper handles the same batch fine.
	if err := c.PutBatch(context.Background(), make([]KV, wire.MaxPairs+1)); err != nil {
		t.Fatalf("chunked PutBatch: %v", err)
	}
}

func TestCallsAfterCloseFail(t *testing.T) {
	addr := fakeServer(t, echoStatus(wire.StatusOK, ""))
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), 3, 4); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Put after Close: %v, want ErrConnClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// A graceful local Close is not a connection failure.
	if err := c.Err(); err != nil {
		t.Fatalf("Err() after clean Close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	// A listener we immediately close: dialing must error, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr, Options{}); err == nil {
		t.Fatal("Dial to closed listener succeeded")
	}
}

// TestOversizedLengthPrefixIsStreamDamage: a response whose length prefix
// reads above MaxFrame — what one flipped high bit makes of a healthy frame —
// must fail the pending call as transport damage (Retryable), not as
// wire.ErrFrameTooBig, which to Retryable is the encoder's "your value is
// too big" and final. The transport is a pipe handed in through
// Options.Dial.
func TestOversizedLengthPrefixIsStreamDamage(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		if _, err := wire.ReadFrame(srv, wire.MaxFrame, nil); err != nil {
			return
		}
		var hdr [wire.FrameHdrSize]byte
		hdr[0] = 0x80 // big-endian length 0x80000000
		srv.Write(hdr[:])
	}()
	c, err := Dial("pipe", Options{Dial: func(string, time.Duration) (net.Conn, error) { return cli, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := c.GetAsync(1)
	if err := call.Wait(); err == nil {
		t.Fatal("Get over a damaged stream succeeded")
	}
	if !Retryable(call.Err) || !errors.Is(call.Err, wire.ErrMalformed) {
		t.Fatalf("call failed with %v: want a Retryable wire.ErrMalformed", call.Err)
	}
	if !errors.Is(c.Err(), wire.ErrMalformed) {
		t.Fatalf("connection error %v, want it terminated as malformed", c.Err())
	}
}

// peer is a scripted server on the far end of a net.Pipe handed to Dial
// through Options.Dial: the test decides when each request is answered, and
// in which order. A Get is answered with its key + getBias, so every call
// can tell its own response from another's.
type peer struct {
	t       *testing.T
	nc      net.Conn
	br      *bufio.Reader
	scratch []byte
	out     []byte
}

const getBias = 1000

// dialPeer returns a Conn whose transport is a pipe to the returned peer.
func dialPeer(t *testing.T, opts Options) (*Conn, *peer) {
	t.Helper()
	cli, srv := net.Pipe()
	opts.Dial = func(string, time.Duration) (net.Conn, error) { return cli, nil }
	c, err := Dial("pipe", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, &peer{t: t, nc: srv, br: bufio.NewReader(srv)}
}

// read returns the next request frame, decoded.
func (p *peer) read() (wire.Request, error) {
	body, err := wire.ReadFrame(p.br, wire.MaxFrame, p.scratch)
	if err != nil {
		return wire.Request{}, err
	}
	p.scratch = body[:0]
	return wire.DecodeRequest(body)
}

// readN returns the next n requests, failing the test on a transport error.
func (p *peer) readN(n int) []wire.Request {
	p.t.Helper()
	reqs := make([]wire.Request, n)
	for i := range reqs {
		var err error
		if reqs[i], err = p.read(); err != nil {
			p.t.Fatalf("peer: reading request %d of %d: %v", i+1, n, err)
		}
	}
	return reqs
}

// appendAnswer encodes the StatusOK response to req onto p.out.
func (p *peer) appendAnswer(req *wire.Request) {
	resp := wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
	if req.Op == wire.OpGet {
		resp.Val = req.Key + getBias
	}
	p.out = wire.MustAppendResponse(p.out, &resp)
}

// answer writes the responses to reqs, in the order given, with one Write.
func (p *peer) answer(reqs ...wire.Request) {
	p.t.Helper()
	p.out = p.out[:0]
	for i := range reqs {
		p.appendAnswer(&reqs[i])
	}
	if _, err := p.nc.Write(p.out); err != nil {
		p.t.Fatalf("peer: write: %v", err)
	}
}

// serve answers every request as it arrives until the pipe closes. It
// allocates nothing per request, so allocation counts taken while it runs
// are the client's own.
func (p *peer) serve() {
	for {
		req, err := p.read()
		if err != nil {
			return
		}
		p.out = p.out[:0]
		p.appendAnswer(&req)
		if _, err := p.nc.Write(p.out); err != nil {
			return
		}
	}
}

// checkGets waits for calls — Gets of keys base, base+1, ... — and checks
// that each got its own value.
func checkGets(t *testing.T, calls []*Call, base uint64) {
	t.Helper()
	for i, call := range calls {
		if err := call.Wait(); err != nil {
			t.Fatalf("Get(%d): %v", base+uint64(i), err)
		}
		if want := base + uint64(i) + getBias; call.Resp.Val != want {
			t.Fatalf("Get(%d) = %d, want %d: a response reached the wrong call", base+uint64(i), call.Resp.Val, want)
		}
	}
}

// TestResponsesOutOfOrder: responses are matched to calls by id, whatever
// order they arrive in (PROTOCOL.md); a call cut short by its ctx drops its
// late response without disturbing the next call; a response with an id
// nothing waits for is ignored; and Close returns only after every call in
// flight has completed.
func TestResponsesOutOfOrder(t *testing.T) {
	c, p := dialPeer(t, Options{})
	const window = 32
	issue := func(base uint64) []*Call {
		calls := make([]*Call, window)
		for i := range calls {
			calls[i] = c.GetAsync(base + uint64(i))
		}
		return calls
	}

	t.Run("Reverse", func(t *testing.T) {
		calls := issue(0)
		reqs := p.readN(window)
		slices.Reverse(reqs)
		p.answer(reqs...)
		checkGets(t, calls, 0)
	})
	t.Run("Shuffled", func(t *testing.T) {
		calls := issue(100)
		reqs := p.readN(window)
		rand.New(rand.NewSource(1)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		p.answer(reqs...)
		checkGets(t, calls, 100)
	})
	t.Run("CtxCut", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, _, err := c.Get(ctx, 200)
			errc <- err
		}()
		cut := p.readN(1)
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("Get after cancel: %v, want context.Canceled", err)
		}
		next := c.GetAsync(201)
		reqs := append(cut, p.readN(1)...)
		p.answer(reqs...) // the cut call's late response first
		checkGets(t, []*Call{next}, 201)
	})
	t.Run("UnknownID", func(t *testing.T) {
		call := c.GetAsync(300)
		req := p.readN(1)[0]
		stray := wire.Request{ID: req.ID + 1000, Op: wire.OpGet, Key: 7}
		p.answer(stray, req)
		checkGets(t, []*Call{call}, 300)
		if err := c.Err(); err != nil {
			t.Fatalf("connection failed on a stray response: %v", err)
		}
	})
	t.Run("CloseDrains", func(t *testing.T) {
		calls := issue(400)
		reqs := p.readN(window)
		closed := make(chan struct{})
		go func() {
			c.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned with calls in flight")
		case <-time.After(50 * time.Millisecond):
		}
		p.answer(reqs...)
		<-closed
		checkGets(t, calls, 400)
		if err := c.Put(context.Background(), 1, 1); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Put after Close: %v, want ErrConnClosed", err)
		}
	})
}

// TestCallAllocs pins the client's allocation budget: the Call is the only
// heap object a call costs — its request is encoded straight into the
// connection's out buffer, and its response decoded straight into the Call
// — and the Done channel is made only for a caller who asks for it, or who
// waits under a ctx that can end.
func TestCallAllocs(t *testing.T) {
	var call Call
	if size := unsafe.Sizeof(call); size > 208 {
		t.Errorf("Call is %d bytes, want it in the 208-byte size class", size)
	}
	c, p := dialPeer(t, Options{})
	go p.serve()
	for i := range 100 { // warm-up: sizes the buffers and the queue
		if err := c.Put(context.Background(), uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		want float64
		call func() error
	}{
		{"Get(Background)", 1, func() error { _, _, err := c.Get(context.Background(), 1); return err }},
		{"Get(cancellable)", 2, func() error { _, _, err := c.Get(cancellable, 1); return err }},
		{"GetAsync+Wait", 1, func() error { return c.GetAsync(1).Wait() }},
		{"Put", 1, func() error { return c.Put(context.Background(), 1, 2) }},
		{"GetAsync+Done", 2, func() error { call := c.GetAsync(1); <-call.Done(); return call.Err }},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}); allocs != tc.want {
			t.Errorf("%s: %v allocs per call, want %v", tc.name, allocs, tc.want)
		}
	}
}

// TestBlockingCallsHonourCtx: every blocking Conn method gives up with
// ctx.Err() when its ctx ends, PutBatch included (it waits for each chunk
// the same way), and the connection survives: once the peer answers, the
// late answers to the abandoned calls are dropped and a new call gets its
// own response.
func TestBlockingCallsHonourCtx(t *testing.T) {
	c, p := dialPeer(t, Options{})
	serve := make(chan struct{})
	go func() {
		// Read every frame; answer none until serve closes, then answer
		// everything held, in arrival order.
		var held []wire.Request
		for {
			req, err := p.read()
			if err != nil {
				return
			}
			held = append(held, req)
			select {
			case <-serve:
			default:
				continue
			}
			p.out = p.out[:0]
			for i := range held {
				p.appendAnswer(&held[i])
			}
			held = held[:0]
			if _, err := p.nc.Write(p.out); err != nil {
				return
			}
		}
	}()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var tx Txn
	tx.Put(1, 1)
	key := []byte("k")
	for _, tc := range []struct {
		name string
		call func(ctx context.Context) error
	}{
		{"Get", func(ctx context.Context) error { _, _, err := c.Get(ctx, 1); return err }},
		{"Put", func(ctx context.Context) error { return c.Put(ctx, 1, 1) }},
		{"Delete", func(ctx context.Context) error { _, err := c.Delete(ctx, 1); return err }},
		{"PutBatch", func(ctx context.Context) error { return c.PutBatch(ctx, []KV{{Key: 1, Val: 1}}) }},
		{"Scan", func(ctx context.Context) error { _, err := c.Scan(ctx, 0, 9, 0); return err }},
		{"GetBytes", func(ctx context.Context) error { _, _, err := c.GetBytes(ctx, 1); return err }},
		{"PutBytes", func(ctx context.Context) error { return c.PutBytes(ctx, 1, key) }},
		{"ScanBytes", func(ctx context.Context) error { _, err := c.ScanBytes(ctx, 0, 9, 0); return err }},
		{"GetKV", func(ctx context.Context) error { _, _, err := c.GetKV(ctx, key); return err }},
		{"PutKV", func(ctx context.Context) error { return c.PutKV(ctx, key, key) }},
		{"DeleteKV", func(ctx context.Context) error { _, err := c.DeleteKV(ctx, key); return err }},
		{"ScanKV", func(ctx context.Context) error { _, err := c.ScanKV(ctx, nil, nil, 0); return err }},
		{"CommitTxn", func(ctx context.Context) error { return c.CommitTxn(ctx, &tx) }},
	} {
		if err := tc.call(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with a cancelled ctx: %v, want context.Canceled", tc.name, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.PutBatch(ctx, make([]KV, 2*wire.MaxPairs+1)); err != ctx.Err() || err == nil {
		t.Errorf("PutBatch past its deadline: %v, want %v", err, context.DeadlineExceeded)
	}

	close(serve)
	if v, ok, err := c.Get(context.Background(), 7); err != nil || !ok || v != 7+getBias {
		t.Fatalf("Get after the cut calls = %d, %v, %v; want %d, true, nil", v, ok, err, 7+getBias)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("connection failed: %v", err)
	}
}
