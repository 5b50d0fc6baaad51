package server

import (
	"bufio"
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
	// one Scan pair buffer and one varlen buffer serve every request of
	// the connection; the steady-state read paths allocate nothing.
	pairs []wire.KV
	vb    varlenBuf
}

type respMeta struct {
	slot   uint8
	served int64
}

// varlenBuf is the backing store of one varlen response: GetV and GetK
// borrow the arena for their value bytes, ScanV additionally borrows the
// pair slice (every Val a subslice of the arena) and the per-pair end
// offsets used to rebuild those subslices after the arena stops growing.
// ScanK borrows kpairs the same way, with two ends per pair (key end,
// value end) since both the key and the value live in the arena.
type varlenBuf struct {
	pairs  []wire.VKV
	kpairs []wire.KKV
	arena  []byte
	ends   []int
}

func (vb *varlenBuf) reset() *varlenBuf {
	vb.pairs = vb.pairs[:0]
	vb.kpairs = vb.kpairs[:0]
	vb.arena = vb.arena[:0]
	vb.ends = vb.ends[:0]
	return vb
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

// handle runs the connection to completion as one loop: block for a frame,
// decode every complete frame already buffered (up to maxIngest) into one
// batch, execute the batch in order on the connection's own session,
// encoding each response straight into the slab, write the slab, repeat.
// Arrival-order execution is the loop itself. Backpressure is TCP's own: a
// peer that stops reading blocks this goroutine in Write, which stops it
// reading, which fills the peer's send buffer — and it stalls nobody else,
// since no other connection's work runs here. The socket closes only after
// the loop has written (or failed to write) a response for every frame it
// decoded, which is what makes Shutdown's drain complete.
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
		body, err := wire.ReadFrame(br, s.opts.MaxFrame, scratch)
		if err != nil {
			c.noteEnd("read", err)
			return
		}
		for n := 1; ; n++ {
			s.bytesIn.Add(uint64(wire.FrameHdrSize + len(body)))
			req, derr := wire.DecodeRequest(body)
			if derr != nil {
				// Framing is lost; answer what decoded, then the error,
				// then hang up. A write that fails on the way has already
				// filed the connection's end.
				s.logf("server: %s: %v", c.nc.RemoteAddr(), derr)
				if c.runBatch(ss) {
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
			if n >= maxIngest || !wire.FrameBuffered(br, s.opts.MaxFrame) {
				break
			}
			if body, err = wire.ReadFrame(br, s.opts.MaxFrame, scratch); err != nil {
				// FrameBuffered said a whole frame (or an oversized
				// length) was buffered, so this is a reject, not a
				// blocked read; answer what we have and die.
				if c.runBatch(ss) {
					c.noteEnd("read", err)
				}
				return
			}
		}
		if !c.runBatch(ss) {
			return
		}
	}
}

// runBatch executes the batch in order and writes the slab: once at the
// end, and whenever it passes slabFlush on the way. It reports whether the
// connection is still usable. After a failed write the rest of the batch is
// dropped unexecuted — the peer can no longer learn the outcome — and only
// gives its admission slots back.
func (c *conn) runBatch(ss *store.Session) bool {
	s := c.srv
	if n := len(c.batch); n > 0 {
		s.readBatches.Add(1)
		s.met.readBatch.Record(int64(n))
	}
	// t0 starts every batched request's queue-wait clock: what a request
	// waits for is the requests decoded ahead of it in its own batch.
	t0 := s.mnow()
	ok, executed := true, 0
	for i := range c.batch {
		if !ok {
			s.releaseAdmit()
			continue
		}
		c.serveOne(ss, &c.batch[i], t0)
		executed++
		if len(c.slab) >= slabFlush {
			ok = c.flush()
		}
	}
	s.inlineOps.Add(uint64(executed))
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
	s.flushes.Add(1)
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
// it.
func (c *conn) shed(req *wire.Request) {
	s := c.srv
	s.ops.Add(1)
	s.shed.Add(1)
	s.met.reqs[opSlot(req.Op)].Inc(c.stripe)
	c.emit(&wire.Response{
		ID: req.ID, Op: req.Op, Status: wire.StatusBusy,
		Msg: "server: overloaded, retry later",
	})
}

// protoErr answers an undecodable frame, echoing its id when the body is
// long enough to hold one. The caller cuts the connection right after.
func (c *conn) protoErr(body []byte, err error) {
	s := c.srv
	s.ops.Add(1)
	s.errs.Add(1)
	s.met.reqs[0].Inc(c.stripe)
	s.met.errs[0].Inc(c.stripe)
	resp := wire.Response{Status: wire.StatusErr, Msg: err.Error()}
	if len(body) >= 8 {
		resp.ID = binary.BigEndian.Uint64(body)
	}
	c.emit(&resp)
}

// latencySampleMask sets the server's stage-latency sampling rate to one
// in (mask+1) requests; must be a power of two minus one. Two clock
// reads cost ~100ns on some hosts, so sampling keeps the pipeline's
// per-request overhead to a counter increment and a branch. Setting
// Options.SlowOpThreshold forces every request onto the clocked path —
// the slow-op log must not sample — at that clocking cost.
const latencySampleMask = 7

// serveOne runs one request through serve and encodes its response into
// the slab, with the stage instrumentation around it: the queue-wait
// histogram (batch ingest t0 to execution start), the execute histogram,
// the per-class whole-request histogram backing the wire Stats latency
// summary, and the slow-op check. Stage latencies are sampled one in
// latencySampleMask+1 requests. A sampled response leaves its ready time in
// meta so the write can charge the flush-wait stage.
func (c *conn) serveOne(ss *store.Session, req *wire.Request, t0 int64) {
	s := c.srv
	c.sampleCtr++
	if c.sampleCtr&latencySampleMask != 0 && s.opts.SlowOpThreshold == 0 {
		resp := c.serve(ss, req)
		s.releaseAdmit()
		c.emit(&resp)
		return
	}
	start := s.mnow()
	resp := c.serve(ss, req)
	s.releaseAdmit()
	now := s.mnow()
	slot := opSlot(req.Op)
	m := s.met
	m.queue[slot].Record(start - t0)
	m.exec[slot].Record(now - start)
	m.class[opClasses[slot]].Record(now - t0)
	if thr := int64(s.opts.SlowOpThreshold); thr > 0 && now-t0 >= thr {
		s.noteSlow(req, slot, start-t0, now-start, now)
	}
	c.emit(&resp)
	c.meta = append(c.meta, respMeta{uint8(slot), now})
}

// serve executes one request against the connection's session and shapes
// the response. Store-level failures become StatusErr; a closed store (the
// server lost a race with Store.Close) becomes StatusClosed; a Txn commit
// that crossed its commit point but failed to apply becomes
// StatusTxnIncomplete so clients can tell "committed, pending replay"
// from "refused, nothing applied". Scan pairs and varlen values in the
// response borrow the connection's scratch buffers: the response must be
// encoded before the next serve.
func (c *conn) serve(ss *store.Session, req *wire.Request) wire.Response {
	s := c.srv
	s.ops.Add(1)
	slot := opSlot(req.Op)
	s.met.reqs[slot].Inc(c.stripe)
	out := wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
	resp := &out
	fail := func(err error) wire.Response {
		s.errs.Add(1)
		s.met.errs[slot].Inc(c.stripe)
		resp.Status = wire.StatusErr
		switch {
		case errors.Is(err, store.ErrClosed):
			resp.Status = wire.StatusClosed
		case errors.Is(err, store.ErrNoSpace):
			resp.Status = wire.StatusNoSpace
		case errors.Is(err, store.ErrTxnIncomplete):
			// The transaction reached its commit point: it is durable
			// and replays at the next reopen, but is not yet visible.
			// ErrReopenRequired (a later commit refused by the latch)
			// stays StatusErr — that one really did apply nothing.
			resp.Status = wire.StatusTxnIncomplete
		}
		resp.Msg = err.Error()
		resp.VVal, resp.VPairs, resp.KPairs = nil, nil, nil
		return out
	}
	switch req.Op {
	case wire.OpGet:
		v, ok, err := ss.Get(req.Key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Status = wire.StatusNotFound
			return out
		}
		resp.Val = v
	case wire.OpPut:
		if err := ss.Put(req.Key, req.Val); err != nil {
			return fail(err)
		}
	case wire.OpDelete:
		ok, err := ss.Delete(req.Key)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpPutBatch:
		pairs := make([]store.KV, len(req.Pairs))
		for i, kv := range req.Pairs {
			pairs[i] = store.KV{Key: kv.Key, Val: kv.Val}
		}
		if err := ss.PutBatch(pairs); err != nil {
			return fail(err)
		}
	case wire.OpScan:
		max := s.opts.MaxScan
		if req.Max != 0 && int(req.Max) < max {
			max = int(req.Max)
		}
		kvs, err := ss.ScanLimit(req.Lo, req.Hi, max)
		if err != nil {
			return fail(err)
		}
		pairs := c.pairs[:0]
		for _, kv := range kvs {
			pairs = append(pairs, wire.KV{Key: kv.Key, Val: kv.Val})
		}
		c.pairs = pairs
		resp.Pairs = pairs
	case wire.OpGetV:
		vb := c.vb.reset()
		val, ok, err := ss.GetBytes(req.Key, vb.arena[:0])
		if err != nil {
			return fail(err)
		}
		vb.arena = val
		if !ok {
			resp.Status = wire.StatusNotFound
			return out
		}
		resp.VVal = val
	case wire.OpPutV:
		if err := ss.PutBytes(req.Key, req.VVal); err != nil {
			return fail(err)
		}
	case wire.OpScanV:
		max := s.opts.MaxScan
		if req.Max != 0 && int(req.Max) < max {
			max = int(req.Max)
		}
		vb := c.vb.reset()
		// The response must stay under the frame cap: count bounded by
		// max, bytes bounded by a budget charging each pair's 12-byte
		// header as it is appended. A first value too big for the budget
		// alone is still sent (progress guarantee; it fits a frame since
		// values are capped at wire.MaxValue); anything later that would
		// overflow ends the page.
		budget := int(wire.MaxFrame) - 64
		var oversizedKey uint64
		oversized := false
		err := ss.ScanBytes(req.Lo, req.Hi, max, func(k uint64, v []byte) bool {
			if len(v) > wire.MaxValue {
				// Stored through the embedded API above the wire cap;
				// an empty page here would strand paginating clients,
				// so surface it as the request's failure instead.
				if len(vb.pairs) == 0 {
					oversized, oversizedKey = true, k
				}
				return false
			}
			used := len(vb.arena) + 12*len(vb.pairs)
			if len(vb.pairs) > 0 && used+12+len(v) > budget {
				return false
			}
			vb.arena = append(vb.arena, v...)
			vb.pairs = append(vb.pairs, wire.VKV{Key: k})
			vb.ends = append(vb.ends, len(vb.arena))
			return len(vb.pairs) < max && len(vb.arena)+12*len(vb.pairs) < budget
		})
		if err != nil {
			return fail(err)
		}
		if oversized {
			return fail(fmt.Errorf("server: value at key %d exceeds the wire size cap", oversizedKey))
		}
		// The arena has stopped moving; point the pairs into it.
		start := 0
		for i := range vb.pairs {
			vb.pairs[i].Val = vb.arena[start:vb.ends[i]:vb.ends[i]]
			start = vb.ends[i]
		}
		resp.VPairs = vb.pairs
	case wire.OpGetK:
		vb := c.vb.reset()
		val, ok, err := ss.GetKV(req.KKey, vb.arena[:0])
		if err != nil {
			return fail(err)
		}
		vb.arena = val
		if !ok {
			resp.Status = wire.StatusNotFound
			return out
		}
		resp.VVal = val
	case wire.OpPutK:
		if err := ss.PutKV(req.KKey, req.VVal); err != nil {
			return fail(err)
		}
	case wire.OpDeleteK:
		ok, err := ss.DeleteKV(req.KKey)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Status = wire.StatusNotFound
		}
	case wire.OpScanK:
		max := s.opts.MaxScan
		if req.Max != 0 && int(req.Max) < max {
			max = int(req.Max)
		}
		vb := c.vb.reset()
		// Same frame-cap discipline as ScanV, with a 6-byte per-pair
		// header (klen u16 + vlen u32) and the key bytes charged along
		// with the value. The first pair always fits: keys are capped at
		// wire.MaxKey and stored values at wire.MaxKValue = MaxFrame-2048.
		// Both key and value land in the arena; ends records two offsets
		// per pair so the subslices can be rebuilt once it stops growing.
		budget := int(wire.MaxFrame) - 64
		err := ss.ScanKV(req.KLo, req.KHi, max, func(k, v []byte) bool {
			used := len(vb.arena) + 6*len(vb.kpairs)
			if len(vb.kpairs) > 0 && used+6+len(k)+len(v) > budget {
				return false
			}
			vb.arena = append(vb.arena, k...)
			vb.ends = append(vb.ends, len(vb.arena))
			vb.arena = append(vb.arena, v...)
			vb.ends = append(vb.ends, len(vb.arena))
			vb.kpairs = append(vb.kpairs, wire.KKV{})
			return len(vb.kpairs) < max && len(vb.arena)+6*len(vb.kpairs) < budget
		})
		if err != nil {
			return fail(err)
		}
		start := 0
		for i := range vb.kpairs {
			ke, ve := vb.ends[2*i], vb.ends[2*i+1]
			vb.kpairs[i].Key = vb.arena[start:ke:ke]
			if ve > ke {
				vb.kpairs[i].Val = vb.arena[ke:ve:ve]
			}
			start = ve
		}
		resp.KPairs = vb.kpairs
	case wire.OpTxn:
		// The whole write-set commits atomically through the store's
		// redo-log protocol, on this connection's session (sessions are
		// per-goroutine, honoring Commit's single-goroutine contract).
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
				return fail(err)
			}
		}
		if err := tx.Commit(); err != nil {
			return fail(err)
		}
	case wire.OpStats:
		st := s.Stats()
		vs := s.st.ValueStats()
		sum := s.met.classSummary()
		resp.Stats = wire.Stats{
			Ops:           st.Ops,
			Errors:        st.Errors,
			BytesIn:       st.BytesIn,
			BytesOut:      st.BytesOut,
			ConnsLive:     st.ConnsLive,
			ConnsTotal:    st.ConnsTotal,
			VlogLive:      uint64(vs.Live),
			VlogGarbage:   uint64(vs.Garbage),
			VlogReclaimed: uint64(vs.Reclaimed),
			Shed:          st.Shed,
			IdleCloses:    st.IdleCloses,
			Resets:        st.Resets,
			ReadP50:       sum[0],
			ReadP99:       sum[1],
			WriteP50:      sum[2],
			WriteP99:      sum[3],
			ScanP50:       sum[4],
			ScanP99:       sum[5],
		}
	default:
		return fail(errors.New("server: unhandled opcode " + req.Op.String()))
	}
	return out
}
