package client

import (
	"errors"
	"net"
	"testing"
	"time"

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
	err = c.Put(1, 2)
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
	if _, _, err := c.Get(1); !errors.Is(err, ErrStoreClosed) {
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
	err = c.CommitTxn(&tx)
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
	if err := c.Put(9, 9); err == nil {
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
	if err := c.Put(1, 2); err != nil {
		t.Fatalf("Put after oversized batch: %v", err)
	}
	// The chunking sync wrapper handles the same batch fine.
	if err := c.PutBatch(make([]KV, wire.MaxPairs+1)); err != nil {
		t.Fatalf("chunked PutBatch: %v", err)
	}
}

func TestCallsAfterCloseFail(t *testing.T) {
	addr := fakeServer(t, echoStatus(wire.StatusOK, ""))
	c, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(3, 4); !errors.Is(err, ErrConnClosed) {
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
	if _, err := Dial(addr, Options{DialTimeout: 2 * time.Second}); err == nil {
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
