package server

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/store"
	"repro/wire"
)

const (
	// ioBufSize is a connection's read buffer: what one read wakeup can
	// take off the socket, and so the most a batch can be decoded from.
	ioBufSize = 64 << 10
	// maxIngest caps the frames decoded per wakeup, bounding the decoded
	// requests a single connection can pin and keeping batch latency flat.
	maxIngest = 64
	// slabFlush is the encoded size past which the response slab is
	// written in the middle of a batch, so a connection never holds more
	// unwritten bytes than slabFlush plus one response.
	slabFlush = 64 << 10
)

// conn is one accepted connection, run from accept to close by one
// goroutine (handle). Nothing is handed to another goroutine, so apart from
// the drain signal every field belongs to the handler alone.
type conn struct {
	srv      *Server
	nc       net.Conn
	stripe   int           // hint for the striped per-opcode counters
	draining chan struct{} // closed by beginDrain
	drainSet sync.Once

	// batch holds the admitted requests of the current wakeup, slab their
	// encoded responses not yet written, pend how many responses that is.
	batch []wire.Request
	slab  []byte
	pend  int
	// meta mirrors the slab's sampled responses (op slot + ready time) so a
	// successful write can charge each one's flush-wait stage.
	meta      []respMeta
	sampleCtr uint32

	// A response is encoded into the slab before the next request runs, so
	// one response (a local handed to the table's handlers would escape), one
	// Scan pair buffer and one varlen buffer serve every request of the
	// connection; the steady-state read paths allocate nothing.
	resp  wire.Response
	pairs []wire.KV
	vb    varlenBuf
	// at is the batch index of the request being served, gets the run of
	// Gets it is answered from when it is a Get (see get).
	at   int
	gets getRun
}

// getRun is a run of consecutive Gets of the batch: the batch indexes it
// spans, its keys, and the answers and clock of the one store call that
// served them all.
type getRun struct {
	lo, hi     int
	keys, vals [maxIngest]uint64
	found      [maxIngest]bool
	err        error
	start, end int64
}

type respMeta struct {
	slot   uint8
	served int64
}

// varlenBuf backs one varlen response: GetV and GetK borrow the arena for
// their value, ScanV and ScanK build their page in it (see add).
type varlenBuf struct {
	pairs    []wire.VKV
	kpairs   []wire.KKV
	arena    []byte
	ends     []int // two per page pair: where its key and its value end in arena
	max, hdr int   // the page being built: its pair cap and per-pair header bytes
}

func (vb *varlenBuf) reset(max, hdr int) *varlenBuf {
	vb.pairs = vb.pairs[:0]
	vb.kpairs = vb.kpairs[:0]
	vb.arena = vb.arena[:0]
	vb.ends = vb.ends[:0]
	vb.max, vb.hdr = max, hdr
	return vb
}

// pageBudget bounds a ScanV or ScanK page's encoded bytes under the frame
// cap.
const pageBudget = wire.MaxFrame - 64

// add is the one frame-budgeted page builder behind ScanV and ScanK: it
// appends a pair's key and value bytes to the arena, reporting whether the
// pair was taken and whether another may follow. A page holds at most max
// pairs and pageBudget bytes, each pair charged a hdr-byte header. The first
// pair is always taken (progress guarantee: wire.MaxValue, wire.MaxKey and
// wire.MaxKValue keep it within a frame); a later one that would overflow
// ends the page.
func (vb *varlenBuf) add(k, v []byte) (taken, more bool) {
	n := len(vb.ends) / 2
	if n > 0 && len(vb.arena)+vb.hdr*(n+1)+len(k)+len(v) > pageBudget {
		return false, false
	}
	vb.arena = append(vb.arena, k...)
	vb.ends = append(vb.ends, len(vb.arena))
	vb.arena = append(vb.arena, v...)
	vb.ends = append(vb.ends, len(vb.arena))
	n++
	return true, n < vb.max && len(vb.arena)+vb.hdr*n < pageBudget
}

// pair returns page pair i's key and value as capped subslices of the
// arena, once it has stopped growing.
func (vb *varlenBuf) pair(i int) (k, v []byte) {
	start := 0
	if i > 0 {
		start = vb.ends[2*i-1]
	}
	ke, ve := vb.ends[2*i], vb.ends[2*i+1]
	return vb.arena[start:ke:ke], vb.arena[ke:ve:ve]
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{srv: s, nc: nc, draining: make(chan struct{})}
}

// beginDrain stops the connection taking new work: it marks it draining
// and kicks a blocked Read with an immediate deadline. Frames already read
// off the socket are still executed and answered (only the read side is
// deadlined).
func (c *conn) beginDrain() {
	c.drainSet.Do(func() {
		close(c.draining)
		c.nc.SetReadDeadline(time.Now())
	})
}

func (c *conn) isDraining() bool {
	select {
	case <-c.draining:
		return true
	default:
		return false
	}
}

// handle runs the connection to completion as the one loop the package
// comment describes; arrival-order execution and TCP backpressure are the
// loop itself. The socket closes only after the loop has written (or failed
// to write) a response for every frame it decoded, which is what makes
// Shutdown's drain complete.
//
// A malformed frame gets a best-effort error response (when the id survived
// decoding) after everything decoded before it was executed and answered,
// and ends the connection: framing is lost, nothing after it can be
// trusted.
func (c *conn) handle() {
	s := c.srv
	defer s.wg.Done()
	defer s.dropConn(c)
	defer c.nc.Close()
	c.stripe = int(s.connsTotal.Add(1))
	s.connsLive.Add(1)
	defer s.connsLive.Add(-1)

	br := bufio.NewReaderSize(c.nc, ioBufSize)
	ss := s.st.NewSession()
	defer ss.Close()
	var scratch []byte
	for {
		// First frame of the wakeup: a blocking read, bounded by the idle
		// timeout when one is set. beginDrain may race this and must win:
		// re-checking draining after arming the idle deadline guarantees
		// the drain's immediate deadline is never overwritten for longer
		// than one check.
		if d := s.opts.IdleTimeout; d > 0 && !c.isDraining() {
			c.nc.SetReadDeadline(time.Now().Add(d))
			if c.isDraining() {
				c.nc.SetReadDeadline(time.Now())
			}
		}
		body, err := wire.ReadFrame(br, wire.MaxFrame, scratch)
		if err != nil {
			c.noteEnd("read", err)
			return
		}
		in := 0 // bytes of the frames read this wakeup
		for n := 1; ; n++ {
			in += wire.FrameHdrSize + len(body)
			req, derr := wire.DecodeRequest(body)
			if derr != nil {
				// Framing is lost; answer what decoded, then the error,
				// then hang up. A write that fails on the way has already
				// filed the connection's end.
				s.logf("server: %s: %v", c.nc.RemoteAddr(), derr)
				if c.runBatch(ss, in) {
					c.protoErr(body, derr)
					if c.flush() {
						s.resets.Add(1)
					}
				}
				return
			}
			scratch = body[:0]
			// Global admission: past Options.MaxServerInflight the request
			// is shed with StatusBusy instead of joining the batch.
			if s.tryAdmit() {
				c.batch = append(c.batch, req)
			} else {
				c.shed(&req)
			}
			if n >= maxIngest || !wire.FrameBuffered(br, wire.MaxFrame) {
				break
			}
			if body, err = wire.ReadFrame(br, wire.MaxFrame, scratch); err != nil {
				// FrameBuffered said a whole frame (or an oversized
				// length) was buffered, so this is a reject, not a
				// blocked read; answer what we have and die.
				if c.runBatch(ss, in) {
					c.noteEnd("read", err)
				}
				return
			}
		}
		if !c.runBatch(ss, in) {
			return
		}
	}
}

// runBatch counts the in bytes its frames took on the wire, executes the
// batch in order and writes the slab: once at the end, and whenever it
// passes slabFlush on the way. It reports whether the connection is still
// usable. After a failed write the rest of the batch is dropped unexecuted —
// the peer can no longer learn the outcome — and only gives its admission
// slots back.
func (c *conn) runBatch(ss *store.Session, in int) bool {
	s := c.srv
	s.bytesIn.Add(uint64(in))
	if n := len(c.batch); n > 0 {
		s.met.readBatch.Record(int64(n))
	}
	// t0 starts every batched request's queue-wait clock: what a request
	// waits for is the requests decoded ahead of it in its own batch.
	t0 := s.mnow()
	ok := true
	c.gets.hi = 0 // no run of this batch has executed yet
	for i := range c.batch {
		if !ok {
			s.releaseAdmit()
			continue
		}
		c.serveOne(ss, i, t0)
		if len(c.slab) >= slabFlush {
			ok = c.flush()
		}
	}
	// Requests can pin PutBatch pair slices and PutV values; drop them
	// before the connection goes back to waiting.
	clear(c.batch)
	c.batch = c.batch[:0]
	return ok && c.flush()
}

// flush writes the slab with a single Write and reports whether the
// connection is still usable. With Options.IdleTimeout set the write gets
// the same bound as a read: a peer that stops reading is cut like one that
// stops sending, instead of parking this goroutine in Write forever.
func (c *conn) flush() bool {
	if len(c.slab) == 0 {
		return true
	}
	s := c.srv
	if d := s.opts.IdleTimeout; d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := c.nc.Write(c.slab); err != nil {
		c.noteEnd("write", err)
		return false
	}
	s.bytesOut.Add(uint64(len(c.slab)))
	s.met.flushBytes.Record(int64(len(c.slab)))
	s.met.flushPend.Record(int64(c.pend))
	if len(c.meta) > 0 {
		now := s.mnow()
		for _, m := range c.meta {
			s.met.flush[m.slot].Record(now - m.served)
		}
	}
	c.resetSlab()
	return true
}

func (c *conn) resetSlab() {
	c.slab, c.meta, c.pend = c.slab[:0], c.meta[:0], 0
}

// emit encodes one response into the slab.
func (c *conn) emit(resp *wire.Response) {
	c.slab = wire.MustAppendResponse(c.slab, resp)
	c.pend++
}

// noteEnd classifies why the connection stopped, for the failure counters:
// a drain (Shutdown, Close) or a clean client EOF is nobody's fault, a
// deadline expiry — no frame, or no room for a response, within
// Options.IdleTimeout — counts in idleCloses, and anything else — resets,
// frames torn mid-read, checksum failures — counts in resets.
func (c *conn) noteEnd(dir string, err error) {
	s := c.srv
	switch {
	case c.isDraining():
	case errors.Is(err, io.EOF):
		// Clean close: the client finished between frames.
	case errors.Is(err, os.ErrDeadlineExceeded):
		s.idleCloses.Add(1)
		s.logf("server: %s: closing idle connection (%s made no progress in %v)",
			c.nc.RemoteAddr(), dir, s.opts.IdleTimeout)
	default:
		s.resets.Add(1)
		s.logf("server: %s: %s: %v", c.nc.RemoteAddr(), dir, err)
	}
}

// shed answers one over-the-cap request with StatusBusy without executing
// it. It is counted under its opcode before it is counted shed, which is
// what keeps Stats' InlineOps from going below zero.
func (c *conn) shed(req *wire.Request) {
	s := c.srv
	s.met.reqs[opSlot(req.Op)].Inc(c.stripe)
	s.shed.Add(1)
	c.emit(&wire.Response{
		ID: req.ID, Op: req.Op, Status: wire.StatusBusy,
		Msg: "server: overloaded, retry later",
	})
}

// protoErr answers an undecodable frame, echoing its id when the body is
// long enough to hold one. The caller cuts the connection right after.
func (c *conn) protoErr(body []byte, err error) {
	m := c.srv.met
	m.reqs[0].Inc(c.stripe)
	m.errs[0].Inc(c.stripe)
	resp := wire.Response{Status: wire.StatusErr, Msg: err.Error()}
	if len(body) >= 8 {
		resp.ID = binary.BigEndian.Uint64(body)
	}
	c.emit(&resp)
}

// latencySampleMask sets the stage-latency sampling rate to one in mask+1
// requests (a power of two minus one): two clock reads cost ~100ns on some
// hosts, so an unsampled request pays a counter increment and a branch.
// Options.SlowOpThreshold clocks every request.
const latencySampleMask = 7

// serveOne executes batch request i through its opcode's handler (see ops),
// counting it and any failure under its opcode, and encodes the response —
// which borrows the connection's scratch buffers — into the slab. One in
// latencySampleMask+1 requests is clocked: queue wait (batch ingest t0 to
// execution start), execution, the per-class whole-request histogram on
// /metrics, the slow-op check, and a meta entry so the write can charge the
// flush-wait stage. A Get executes in its run (see
// get): its queue wait ends where the run's store call starts, and its
// execution is an even share of that call.
func (c *conn) serveOne(ss *store.Session, i int, t0 int64) {
	req := &c.batch[i]
	s, m, slot := c.srv, c.srv.met, opSlot(req.Op)
	c.sampleCtr++
	clocked := c.sampleCtr&latencySampleMask == 0 || s.opts.SlowOpThreshold > 0
	var start int64
	if clocked {
		start = s.mnow()
	}
	m.reqs[slot].Inc(c.stripe)
	c.resp = wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
	c.at = i
	if err := ops[slot].serve(c, ss, req); err != nil {
		m.errs[slot].Inc(c.stripe)
		c.resp = wire.Response{ID: req.ID, Op: req.Op, Status: statusOf(err), Msg: err.Error()}
	}
	s.releaseAdmit()
	c.emit(&c.resp)
	if !clocked {
		return
	}
	now := s.mnow()
	exec := now - start
	if req.Op == wire.OpGet {
		g := &c.gets
		start, exec = g.start, (g.end-g.start)/int64(g.hi-g.lo)
	}
	m.queue[slot].Record(start - t0)
	m.exec[slot].Record(exec)
	m.class[ops[slot].class].Record(now - t0)
	if thr := int64(s.opts.SlowOpThreshold); thr > 0 && now-t0 >= thr {
		s.noteSlow(req, slot, start-t0, exec, now)
	}
	c.meta = append(c.meta, respMeta{uint8(slot), now})
}

// statusOf is the one error→status mapping: a closed store (the server lost
// a race with Store.Close) is StatusClosed, a full value log StatusNoSpace,
// and a Txn commit past its commit point but not applied StatusTxnIncomplete
// — durable, replayed at the next reopen. Everything else, ErrReopenRequired
// included (a later commit the latch refused: nothing applied), is StatusErr.
func statusOf(err error) wire.Status {
	switch {
	case errors.Is(err, store.ErrClosed):
		return wire.StatusClosed
	case errors.Is(err, store.ErrNoSpace):
		return wire.StatusNoSpace
	case errors.Is(err, store.ErrTxnIncomplete):
		return wire.StatusTxnIncomplete
	}
	return wire.StatusErr
}

// ops is the server's one opcode table: each opcode's latency class and
// handler. A handler fills c.resp (ID, Op and StatusOK preset); an error it
// returns becomes a payload-free response with statusOf's status instead.
var ops = [numOps]struct {
	class int
	serve func(c *conn, ss *store.Session, req *wire.Request) error
}{
	0:               {classRead, (*conn).unknown},
	wire.OpGet:      {classRead, (*conn).get},
	wire.OpPut:      {classWrite, (*conn).put},
	wire.OpDelete:   {classWrite, (*conn).delete},
	wire.OpPutBatch: {classWrite, (*conn).putBatch},
	wire.OpScan:     {classScan, (*conn).scan},
	wire.OpGetV:     {classRead, (*conn).getBytes},
	wire.OpPutV:     {classWrite, (*conn).putBytes},
	wire.OpScanV:    {classScan, (*conn).scanBytes},
	wire.OpGetK:     {classRead, (*conn).getBytes},
	wire.OpPutK:     {classWrite, (*conn).putKV},
	wire.OpDeleteK:  {classWrite, (*conn).deleteKV},
	wire.OpScanK:    {classScan, (*conn).scanKV},
	wire.OpTxn:      {classWrite, (*conn).txn},
}

// found sets StatusNotFound on a read or delete that succeeded without
// finding its key, and passes err through.
func (c *conn) found(ok bool, err error) error {
	if err == nil && !ok {
		c.resp.Status = wire.StatusNotFound
	}
	return err
}

// pageMax is a scan request's pair bound: its Max, capped at (and by
// default) wire.MaxPairs.
func pageMax(req *wire.Request) int {
	if req.Max == 0 || req.Max > wire.MaxPairs {
		return wire.MaxPairs
	}
	return int(req.Max)
}

func (c *conn) unknown(_ *store.Session, r *wire.Request) error {
	return errors.New("server: unhandled opcode " + r.Op.String())
}

func (c *conn) put(ss *store.Session, r *wire.Request) error      { return ss.Put(r.Key, r.Val) }
func (c *conn) delete(ss *store.Session, r *wire.Request) error   { return c.found(ss.Delete(r.Key)) }
func (c *conn) putBytes(ss *store.Session, r *wire.Request) error { return ss.PutBytes(r.Key, r.VVal) }
func (c *conn) putKV(ss *store.Session, r *wire.Request) error    { return ss.PutKV(r.KKey, r.VVal) }
func (c *conn) deleteKV(ss *store.Session, r *wire.Request) error {
	return c.found(ss.DeleteKV(r.KKey))
}

// get answers a Get off its run. The first Get of a run — the one that
// finds no run covering it — executes the run: the consecutive Gets from
// it up to the next other opcode, answered by one Session.GetBatch. The
// rest read their answers off that call. Nothing in a run writes, and
// everything before it has executed when it starts, so it answers what
// its Gets executed one by one in arrival order would (see
// store.Session.GetBatch).
func (c *conn) get(ss *store.Session, _ *wire.Request) error {
	g := &c.gets
	if c.at >= g.hi {
		hi := c.at + 1
		for hi < len(c.batch) && c.batch[hi].Op == wire.OpGet {
			hi++
		}
		g.lo, g.hi = c.at, hi
		n := hi - c.at
		for j := range n {
			g.keys[j] = c.batch[c.at+j].Key
		}
		g.start = c.srv.mnow()
		g.err = ss.GetBatch(g.keys[:n], g.vals[:n], g.found[:n])
		g.end = c.srv.mnow()
	}
	j := c.at - g.lo
	c.resp.Val = g.vals[j]
	return c.found(g.found[j], g.err)
}

func (c *conn) putBatch(ss *store.Session, req *wire.Request) error {
	pairs := make([]store.KV, len(req.Pairs))
	for i, kv := range req.Pairs {
		pairs[i] = store.KV{Key: kv.Key, Val: kv.Val}
	}
	return ss.PutBatch(pairs)
}

func (c *conn) scan(ss *store.Session, req *wire.Request) error {
	kvs, err := ss.ScanLimit(req.Lo, req.Hi, pageMax(req))
	c.pairs = c.pairs[:0]
	for _, kv := range kvs {
		c.pairs = append(c.pairs, wire.KV{Key: kv.Key, Val: kv.Val})
	}
	c.resp.Pairs = c.pairs
	return err
}

// getBytes is GetV and GetK: the value lands in the connection's varlen
// arena, which the response borrows.
func (c *conn) getBytes(ss *store.Session, req *wire.Request) (err error) {
	var ok bool
	if req.Op == wire.OpGetK {
		c.vb.arena, ok, err = ss.GetKV(req.KKey, c.vb.arena[:0])
	} else {
		c.vb.arena, ok, err = ss.GetBytes(req.Key, c.vb.arena[:0])
	}
	c.resp.VVal = c.vb.arena
	return c.found(ok, err)
}

func (c *conn) scanBytes(ss *store.Session, req *wire.Request) error {
	vb := c.vb.reset(pageMax(req), wire.ScanVPairHdrSize)
	var oversized error
	err := ss.ScanBytes(req.Lo, req.Hi, vb.max, func(k uint64, v []byte) bool {
		if len(v) > wire.MaxValue {
			// Stored through the embedded API above the wire cap; an
			// empty page here would strand paginating clients, so
			// surface it as the request's failure instead.
			if len(vb.pairs) == 0 {
				oversized = fmt.Errorf("server: value at key %d exceeds the wire size cap", k)
			}
			return false
		}
		taken, more := vb.add(nil, v)
		if taken {
			vb.pairs = append(vb.pairs, wire.VKV{Key: k})
		}
		return more
	})
	for i := range vb.pairs {
		_, vb.pairs[i].Val = vb.pair(i)
	}
	c.resp.VPairs = vb.pairs
	return cmp.Or(err, oversized)
}

func (c *conn) scanKV(ss *store.Session, req *wire.Request) error {
	vb := c.vb.reset(pageMax(req), wire.ScanKPairHdrSize)
	err := ss.ScanKV(req.KLo, req.KHi, vb.max, func(k, v []byte) bool {
		_, more := vb.add(k, v)
		return more
	})
	for i := range len(vb.ends) / 2 {
		k, v := vb.pair(i)
		vb.kpairs = append(vb.kpairs, wire.KKV{Key: k, Val: v})
	}
	c.resp.KPairs = vb.kpairs
	return err
}

// txn commits the whole write-set atomically through the store's redo-log
// protocol, on this connection's session (sessions are per-goroutine,
// honoring Commit's single-goroutine contract).
func (c *conn) txn(ss *store.Session, req *wire.Request) error {
	tx := ss.Begin()
	for i := range req.TxnOps {
		op := &req.TxnOps[i]
		var err error
		switch op.Kind {
		case wire.TxnPut:
			err = tx.Put(op.Key, op.Val)
		case wire.TxnDelete:
			err = tx.Delete(op.Key)
		case wire.TxnPutK:
			err = tx.PutKV(op.KKey, op.VVal)
		case wire.TxnDeleteK:
			err = tx.DeleteKV(op.KKey)
		default:
			err = fmt.Errorf("server: txn op %d has unknown kind %d", i, op.Kind)
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}
