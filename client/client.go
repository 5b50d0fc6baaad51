// Package client is the Go client for a pmkv server (package server): one
// Conn is one TCP connection speaking the pmkv wire protocol with full
// pipelining — any number of requests in flight, responses matched back to
// their Calls by id — and a Pool picks among a fixed set of Conns.
//
// Every operation has two forms. XAsync issues the request and returns its
// *Call without waiting; the request is encoded at issue, so the caller may
// reuse any slice it passed as soon as XAsync returns. X(ctx, ...) waits
// for the response or for ctx to end. A ctx cut abandons the call, not the
// connection: the call fails with ctx.Err(), its late response is dropped,
// and the outcome of a cut write is unknown — the request may still reach
// the server and be applied.
//
// A Conn is safe for concurrent use by any number of goroutines; the
// pipelining is what turns that concurrency into throughput, since nobody
// waits for anybody else's round trip.
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/wire"
)

// KV is one key-value pair, aliased from the wire layer.
type KV = wire.KV

// VKV is one key / byte-string value pair, aliased from the wire layer.
type VKV = wire.VKV

// Errors surfaced by the client. Server-reported failures are *RemoteError.
var (
	// ErrConnClosed reports a call issued on (or cut short by) a closed
	// connection.
	ErrConnClosed = errors.New("client: connection closed")
	// ErrStoreClosed reports wire.StatusClosed: the server is up but its
	// store has been closed (it is draining for shutdown).
	ErrStoreClosed = errors.New("client: store closed on server")
)

// RemoteError carries a server-side failure message (wire.StatusErr).
type RemoteError struct {
	Op  wire.Op
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("client: server error on %s: %s", e.Op, e.Msg)
}

// Options configures a Conn.
type Options struct {
	// CallTimeout bounds each call from issue to response. When it
	// expires the call fails with ErrCallTimeout but the connection stays
	// up — the late response, if it ever arrives, is discarded. The
	// outcome of a timed-out write is unknown (it may have been applied);
	// only the caller can decide whether reissuing is safe. 0 disables.
	CallTimeout time.Duration
	// Dial, when non-nil, replaces net.DialTimeout for connection
	// establishment — the hook fault-injection tests use to wrap the
	// transport (see internal/netfault).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
}

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// Call is one in-flight request. Wait (or Done + the fields) delivers the
// outcome: Err is nil on any well-formed server reply, including NotFound —
// inspect Resp.Status for that.
type Call struct {
	done bool // completed; guarded by conn.mu. It fills Op's padding.
	Op   wire.Op
	Resp wire.Response
	Err  error

	conn  *Conn
	id    uint64
	timer *time.Timer    // CallTimeout timer; nil when timeouts are off
	wg    sync.WaitGroup // released by the completion
	ch    chan struct{}  // made by the first Done, closed by the completion
}

// Done returns a channel that is closed when the call completes. The
// channel is made on the first Done, so a call that is only waited for
// never pays for one.
func (c *Call) Done() <-chan struct{} {
	c.conn.mu.Lock()
	defer c.conn.mu.Unlock()
	if c.ch == nil {
		c.ch = make(chan struct{})
		if c.done {
			close(c.ch)
		}
	}
	return c.ch
}

// Wait blocks until the call completes and returns its error.
func (c *Call) Wait() error {
	c.wg.Wait()
	return c.Err
}

// Conn is one pipelined client connection.
type Conn struct {
	nc   net.Conn
	opts Options

	kick chan struct{} // one slot: the out buffer went from empty to non-empty
	stop chan struct{} // closed by terminate

	mu        sync.Mutex
	cond      sync.Cond // on mu: the writer took the out buffer, the last in-flight call completed, or the conn terminated
	out       []byte    // encoded requests the writer has not taken yet
	queued    int       // requests in out
	pending   callQueue // calls sent or about to be, awaiting their responses
	inflight  int       // calls issued and not completed: what Close drains
	nextID    uint64
	closing   bool
	closeDone chan struct{} // closed when the first Close finishes
	termErr   error

	loops sync.WaitGroup // reader + writer goroutines
}

// Dial connects to a pmkv server at addr ("host:port").
func Dial(addr string, opts Options) (*Conn, error) {
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Conn{
		nc:        nc,
		opts:      opts,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		closeDone: make(chan struct{}),
	}
	c.cond.L = &c.mu
	c.loops.Add(2)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// The out buffer holds at most sendQueue requests and maxWriteSlab encoded
// bytes before issuing blocks: deep enough to amortize the writer's syscall
// across a pipelined burst — everything issued by the time the writer wakes
// goes out in one Write — shallow enough to keep frames flowing while a huge
// burst drains.
const (
	sendQueue    = 1024
	maxWriteSlab = 256 << 10
)

// start issues a call: it encodes req straight into the out buffer and
// queues the call for its response, all under c.mu, and wakes the writer
// when the buffer was empty. It never blocks on the network round trip —
// only on a full out buffer. An unencodable request (e.g. an oversized
// batch) is that call's own failure, not the connection's.
func (c *Conn) start(req *wire.Request) *Call {
	call := &Call{Op: req.Op, conn: c}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing || c.termErr != nil {
		call.Err = c.termErr
		if call.Err == nil {
			call.Err = ErrConnClosed
		}
		call.done = true
		return call
	}
	c.inflight++
	call.wg.Add(1)
	for c.termErr == nil && (c.queued >= sendQueue || len(c.out) >= maxWriteSlab) {
		c.cond.Wait()
	}
	if c.termErr != nil {
		c.complete(call, c.termErr)
		return call
	}
	c.nextID++
	req.ID = c.nextID
	out, err := wire.AppendRequest(c.out, req)
	if err != nil {
		c.complete(call, err)
		return call
	}
	if len(c.out) == 0 {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	c.out = out
	c.queued++
	call.id = req.ID
	c.pending.push(call)
	if d := c.opts.CallTimeout; d > 0 {
		call.timer = time.AfterFunc(d, func() {
			c.fail(call, fmt.Errorf("%w: %s after %v", ErrCallTimeout, call.Op, d))
		})
	}
	return call
}

// writeLoop ships the out buffer: woken once per batch — when the buffer
// goes from empty to non-empty — it swaps in its spare buffer and writes
// everything issued so far with one Write call, so deep pipelining costs
// syscalls logarithmically rather than linearly.
func (c *Conn) writeLoop() {
	defer c.loops.Done()
	var buf []byte
	for {
		select {
		case <-c.kick:
		case <-c.stop:
			return
		}
		c.mu.Lock()
		buf, c.out = c.out, buf[:0]
		c.queued = 0
		c.cond.Broadcast()
		c.mu.Unlock()
		if _, err := c.nc.Write(buf); err != nil {
			c.terminate(fmt.Errorf("client: write: %w", err))
			return
		}
	}
}

// ioBufSize sizes the per-connection buffered reader; large enough that a
// pipelined burst of responses coalesces into few read syscalls. (The
// write side batches in the out buffer instead — see Conn.start.)
const ioBufSize = 64 << 10

// readLoop reads response frames and delivers them to their Calls.
func (c *Conn) readLoop() {
	defer c.loops.Done()
	br := bufio.NewReaderSize(c.nc, ioBufSize)
	var scratch []byte
	for {
		body, err := wire.ReadFrame(br, wire.MaxFrame, scratch)
		if errors.Is(err, wire.ErrFrameTooBig) {
			// An absurd length prefix on a response is a damaged stream (a
			// flipped bit in the prefix), not a request of ours that was too
			// big to encode — which is what the bare sentinel means to
			// Retryable, and why the retry verdict is changed here, not there.
			err = fmt.Errorf("%w: %v", wire.ErrMalformed, err)
		}
		if err == nil {
			scratch = body[:0]
			err = c.deliver(body)
		} else {
			err = fmt.Errorf("client: read: %w", err)
		}
		if err != nil {
			c.terminate(err)
			return
		}
	}
}

// deliver decodes one response body straight into the Resp of the call it
// answers — found by the id its first 8 bytes carry (ReadFrame passes no
// shorter body) — and completes that call.
func (c *Conn) deliver(body []byte) error {
	id := binary.BigEndian.Uint64(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	call := c.pending.find(id)
	if call == nil {
		// A response nothing waits for: the late answer to a call cut
		// short by its CallTimeout or ctx, a duplicate, or a server bug.
		// Ignoring it keeps the stream usable, as long as it decodes.
		_, err := wire.DecodeResponse(body)
		return err
	}
	var err error
	if call.Resp, err = wire.DecodeResponse(body); err != nil {
		call.Resp = wire.Response{}
		return err
	}
	c.complete(call, statusErr(&call.Resp))
	c.pending.popDone()
	return nil
}

// statusErr is the error a well-formed response completes its call with:
// nil for StatusOK and StatusNotFound.
func statusErr(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusErr:
		return &RemoteError{Op: resp.Op, Msg: resp.Msg}
	case wire.StatusClosed:
		return fmt.Errorf("%w: %s", ErrStoreClosed, resp.Msg)
	case wire.StatusBusy:
		return fmt.Errorf("%w: %s", ErrBusy, resp.Msg)
	case wire.StatusNoSpace:
		return fmt.Errorf("%w: %s", ErrNoSpace, resp.Msg)
	case wire.StatusTxnIncomplete:
		return fmt.Errorf("%w: %s", ErrTxnIncomplete, resp.Msg)
	}
	return nil
}

// complete delivers a call's outcome. It runs under c.mu on a call that is
// not done yet, which makes it the call's only completer.
func (c *Conn) complete(call *Call, err error) {
	if call.timer != nil {
		call.timer.Stop()
	}
	call.Err = err
	call.done = true
	if call.ch != nil {
		close(call.ch)
	}
	call.wg.Done()
	c.inflight--
	if c.inflight == 0 && c.closing {
		c.cond.Broadcast()
	}
}

// fail completes call with err unless it already completed. A failed call
// that is still queued stays there as a hole until it reaches the head;
// its late response, if one comes, is dropped.
func (c *Conn) fail(call *Call, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !call.done {
		c.complete(call, err)
		c.pending.popDone()
	}
}

// terminate tears the connection down once: it records the terminal error,
// stops both loops, fails every pending Call and wakes every blocked
// issuer, then closes the socket.
func (c *Conn) terminate(err error) {
	c.mu.Lock()
	if c.termErr != nil {
		c.mu.Unlock()
		return
	}
	c.termErr = err
	close(c.stop)
	for _, call := range c.pending.calls[c.pending.head:] {
		if !call.done {
			c.complete(call, err)
		}
	}
	c.pending = callQueue{}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.nc.Close()
}

// Close drains the connection gracefully: new calls fail immediately,
// in-flight calls run to completion, then the socket closes. Concurrent
// and repeated Closes all wait for that same drain. Closing an
// already-failed connection returns nil (the failure already surfaced on
// its calls).
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closing {
		// Another Close owns the teardown; wait for it rather than
		// aborting the calls it is still draining.
		c.mu.Unlock()
		<-c.closeDone
		return nil
	}
	c.closing = true
	for c.inflight > 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
	c.terminate(ErrConnClosed)
	c.loops.Wait()
	close(c.closeDone)
	return nil
}

// Err returns the connection's terminal error, or nil while it is usable.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.termErr != nil && !errors.Is(c.termErr, ErrConnClosed) {
		return c.termErr
	}
	return nil
}

// callQueue holds a connection's issued calls in id order. The server
// answers a connection's requests in arrival order, so a response normally
// matches the head; the protocol allows any order, and any other id is
// found by a forward search. A completed call left in the queue (one cut
// short by a timeout or a ctx) is a hole, dropped once it reaches the head.
type callQueue struct {
	calls []*Call // calls[head:] is the queue
	head  int
}

func (q *callQueue) push(call *Call) {
	if len(q.calls) == cap(q.calls) && 2*q.head >= len(q.calls) {
		// Reuse the popped front before growing: at most half the slots
		// are live, so this copy is paid for by as many pushes.
		n := copy(q.calls, q.calls[q.head:])
		clear(q.calls[n:])
		q.calls, q.head = q.calls[:n], 0
	}
	q.calls = append(q.calls, call)
}

// find returns the queued call awaiting the response with this id, or nil.
// Ids ascend along the queue, so the search stops at the first larger one.
func (q *callQueue) find(id uint64) *Call {
	for _, call := range q.calls[q.head:] {
		if call.id >= id {
			if call.id == id && !call.done {
				return call
			}
			return nil
		}
	}
	return nil
}

// popDone drops the completed calls at the head of the queue.
func (q *callQueue) popDone() {
	for q.head < len(q.calls) && q.calls[q.head].done {
		q.calls[q.head] = nil
		q.head++
	}
}

// wait blocks until call completes or ctx ends; a ctx cut fails the call
// with ctx.Err() (see the package comment). A ctx that can never end
// (context.Background) goes straight to Wait, so the call never makes its
// Done channel.
func (c *Conn) wait(ctx context.Context, call *Call) error {
	done := ctx.Done()
	if done == nil {
		return call.Wait()
	}
	select {
	case <-call.Done():
	case <-done:
		c.fail(call, ctx.Err())
	}
	return call.Wait()
}

// do is the one blocking request core: issue req, then wait for its
// response or for ctx to end. Every blocking method is do plus a projection
// of the Call's response.
func (c *Conn) do(ctx context.Context, req *wire.Request) (*Call, error) {
	call := c.start(req)
	return call, c.wait(ctx, call)
}

// found, u64Val and bytesVal project a completed call onto the result shapes
// the blocking methods return; on any error the response carries no value,
// so none is returned.
func found(call *Call, err error) (bool, error) {
	return err == nil && call.Resp.Status == wire.StatusOK, err
}

func u64Val(call *Call, err error) (uint64, bool, error) {
	ok, err := found(call, err)
	return call.Resp.Val, ok, err
}

func bytesVal(call *Call, err error) ([]byte, bool, error) {
	ok, err := found(call, err)
	return call.Resp.VVal, ok, err
}

// scanMax is a scan's page bound as the wire carries it: max when it is in
// 1..wire.MaxPairs, else 0 — the server's cap.
func scanMax(max int) uint32 {
	if max > 0 && max <= wire.MaxPairs {
		return uint32(max)
	}
	return 0
}

// GetAsync issues a pipelined Get.
func (c *Conn) GetAsync(key uint64) *Call {
	return c.start(&wire.Request{Op: wire.OpGet, Key: key})
}

// Get returns the value stored under key on the server.
func (c *Conn) Get(ctx context.Context, key uint64) (uint64, bool, error) {
	return u64Val(c.do(ctx, &wire.Request{Op: wire.OpGet, Key: key}))
}

// PutAsync issues a pipelined Put.
func (c *Conn) PutAsync(key, val uint64) *Call {
	return c.start(&wire.Request{Op: wire.OpPut, Key: key, Val: val})
}

// Put stores val under key on the server. When Put returns nil the write is
// durable on the server (the store's per-operation persistence contract).
func (c *Conn) Put(ctx context.Context, key, val uint64) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPut, Key: key, Val: val})
	return err
}

// DeleteAsync issues a pipelined Delete.
func (c *Conn) DeleteAsync(key uint64) *Call {
	return c.start(&wire.Request{Op: wire.OpDelete, Key: key})
}

// Delete removes key on the server, reporting whether it was present.
func (c *Conn) Delete(ctx context.Context, key uint64) (bool, error) {
	return found(c.do(ctx, &wire.Request{Op: wire.OpDelete, Key: key}))
}

// PutBatchAsync issues one pipelined PutBatch frame. len(pairs) must not
// exceed wire.MaxPairs; PutBatch chunks automatically.
func (c *Conn) PutBatchAsync(pairs []KV) *Call {
	return c.start(&wire.Request{Op: wire.OpPutBatch, Pairs: pairs})
}

// PutBatch stores all pairs, chunking across frames when the batch exceeds
// wire.MaxPairs, and waits for every chunk. Chunks are pipelined, not
// transactional: each pair is individually atomic on the server, and on
// error a suffix of the batch may be unapplied.
func (c *Conn) PutBatch(ctx context.Context, pairs []KV) error {
	var calls []*Call
	for len(pairs) > 0 {
		n := min(len(pairs), wire.MaxPairs)
		calls = append(calls, c.PutBatchAsync(pairs[:n]))
		pairs = pairs[n:]
	}
	var first error
	for _, call := range calls {
		if err := c.wait(ctx, call); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ScanAsync issues a pipelined Scan for lo <= key <= hi, returning at most
// max pairs (0 = the server's cap; never more than wire.MaxPairs).
func (c *Conn) ScanAsync(lo, hi uint64, max int) *Call {
	return c.start(&wire.Request{Op: wire.OpScan, Lo: lo, Hi: hi, Max: scanMax(max)})
}

// Scan returns pairs with lo <= key <= hi in ascending key order, truncated
// to max (or the server's cap when max is 0). A full result set exactly at
// the cap may be a truncation; page with lo = lastKey+1 to continue.
func (c *Conn) Scan(ctx context.Context, lo, hi uint64, max int) ([]KV, error) {
	call, err := c.do(ctx, &wire.Request{Op: wire.OpScan, Lo: lo, Hi: hi, Max: scanMax(max)})
	return call.Resp.Pairs, err
}

// GetBytesAsync issues a pipelined GetV (varlen Get).
func (c *Conn) GetBytesAsync(key uint64) *Call {
	return c.start(&wire.Request{Op: wire.OpGetV, Key: key})
}

// GetBytes returns the byte-string value stored under key on the server.
// The returned slice is owned by the caller. Reading a key written through
// the fixed-width Put API fails with a *RemoteError.
func (c *Conn) GetBytes(ctx context.Context, key uint64) ([]byte, bool, error) {
	return bytesVal(c.do(ctx, &wire.Request{Op: wire.OpGetV, Key: key}))
}

// PutBytesAsync issues a pipelined PutV (varlen Put). val must not exceed
// wire.MaxValue.
func (c *Conn) PutBytesAsync(key uint64, val []byte) *Call {
	return c.start(&wire.Request{Op: wire.OpPutV, Key: key, VVal: val})
}

// PutBytes stores val as a byte-string value under key on the server. When
// it returns nil the value is durable in the store's persistence model.
func (c *Conn) PutBytes(ctx context.Context, key uint64, val []byte) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPutV, Key: key, VVal: val})
	return err
}

// ScanBytesAsync issues a pipelined ScanV for lo <= key <= hi, returning
// at most max pairs (0 = the server's cap).
func (c *Conn) ScanBytesAsync(lo, hi uint64, max int) *Call {
	return c.start(&wire.Request{Op: wire.OpScanV, Lo: lo, Hi: hi, Max: scanMax(max)})
}

// ScanBytes returns varlen pairs with lo <= key <= hi in ascending key
// order. Pages are bounded twice over — by max (or the server's pair cap)
// and by the response frame budget — so a result set at either bound may
// be a truncation; page with lo = lastKey+1 to continue. The pairs' value
// slices share one allocation owned by the caller.
func (c *Conn) ScanBytes(ctx context.Context, lo, hi uint64, max int) ([]VKV, error) {
	call, err := c.do(ctx, &wire.Request{Op: wire.OpScanV, Lo: lo, Hi: hi, Max: scanMax(max)})
	return call.Resp.VPairs, err
}
