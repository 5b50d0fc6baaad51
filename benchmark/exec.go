package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/client"
	"repro/store"
	"repro/wire"
)

var epoch = time.Now()

// now is the benchmark's monotonic clock in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// executor drives generated operations into one top layer — a store.Session
// or a client.Conn — clocks the calls it is told to clock, and checks every
// result against the operation's expectation. The check runs after the
// clock stops.
type executor interface {
	do(w *worker, o *op, timed bool)
	// drain completes every call still in flight (a no-op in process).
	drain(w *worker)
	close()
}

// complain prints the worker's first few failures; the counts carry the
// rest. The durability guard silences it: there a failed read under the old
// model is how it learns the in-flight operation took effect.
func (w *worker) complain(format string, args ...any) {
	if w.complaints++; w.complaints <= 3 && !w.quiet {
		fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	}
}

// readBack reads every key the worker owns through a fresh session and
// checks it against the worker's model.
func readBack(wl *workload, st *store.Store, w *worker) {
	x := newEmbedExec(wl, st)
	defer x.close()
	for i := range wl.ks {
		kind := [...]uint8{famU64: opGet, famBytes: opGetBytes, famKV: opGetKV}[wl.ks[i].fam]
		for j, ver := range w.ver[i] {
			o := op{kind: kind, ks: uint8(i), idx: uint32(j*numWorkers + w.id), ver: ver}
			x.do(w, &o, false)
		}
	}
}

func (w *worker) checkWrite(o *op, err error) {
	if err != nil {
		w.failed++
		w.complain("%s idx %d: %v", kindNames[o.kind], o.idx, err)
	}
}

func (w *worker) checkDelete(o *op, existed bool, err error) {
	switch {
	case err != nil:
		w.checkWrite(o, err)
	case existed != o.was:
		w.mismatched++
		w.complain("%s idx %d: existed=%v, model says %v", kindNames[o.kind], o.idx, existed, o.was)
	}
}

// checkRead judges a point read: found must equal the model's liveness and
// a found value must have passed its check.
func (w *worker) checkRead(o *op, found, valueOK bool, err error) {
	switch {
	case err != nil:
		w.checkWrite(o, err)
	case found != isLive(o.ver) || (found && !valueOK):
		w.mismatched++
		w.complain("%s idx %d: found=%v valueOK=%v, model version %d", kindNames[o.kind], o.idx, found, valueOK, o.ver)
	}
}

// judgeRead is checkRead for the in-process point reads, with one more look
// before a result the model rejects is called a mismatch. The trees' readers
// take no locks, and a reader racing the other worker's insert or delete in
// the same leaf can miss a live key for an instant; a second read tells such
// a transient miss (reported, and counted in store.transient_read_misses)
// from a store that lost or damaged the key (a mismatch: the run is
// incorrect). It is not counted as failed: it strikes about one run in a
// hundred at random, and one failed operation more than the baseline would
// void whatever a later change measured in that run.
func (x *embedExec) judgeRead(w *worker, o *op, found, valueOK bool, err error) {
	if err == nil && (found != isLive(o.ver) || (found && !valueOK)) {
		if found2, ok2, err2 := x.reread(o); err2 == nil && found2 == isLive(o.ver) && (!found2 || ok2) {
			w.transient++
			w.complain("%s idx %d: transient: found=%v valueOK=%v, then as the model says (version %d)", kindNames[o.kind], o.idx, found, valueOK, o.ver)
			return
		}
	}
	w.checkRead(o, found, valueOK, err)
}

// reread repeats a point read, unclocked.
func (x *embedExec) reread(o *op) (found, valueOK bool, err error) {
	k := &x.wl.ks[o.ks]
	key := k.key(o.idx)
	switch o.kind {
	case opGet:
		v, ok, err := x.ss.Get(key)
		return ok, ok && checkU64(v, key, o.ver), err
	case opGetBytes:
		got, ok, err := x.ss.GetBytes(key, x.got[:0])
		x.got = got
		return ok, ok && checkValue(got, key, o.ver, k.valLen(o.idx), &x.scratch), err
	default:
		got, ok, err := x.ss.GetKV(k.kvKey(&x.key, o.idx), x.got[:0])
		x.got = got
		return ok, ok && checkValue(got, key, o.ver, k.valLen(o.idx), &x.scratch), err
	}
}

// wantVersion is the version a scan must see at idx: exact for the worker's
// own keys, any live version (0) for the other worker's.
func (w *worker) wantVersion(ks uint8, idx uint32) uint32 {
	if int(idx)%numWorkers == w.id {
		return w.ver[ks][idx/numWorkers]
	}
	return 0
}

// scanned is a scan's result, copied out of the session-owned buffers: the
// index each returned key decodes to (-1 when it is no key of the keyspace)
// and, for the varlen families, its value.
type scanned struct {
	idx  []int64
	u64  []uint64
	vals [][]byte
}

func (s *scanned) reset() { s.idx, s.u64 = s.idx[:0], s.u64[:0] }

func (s *scanned) addValue(idx int64, val []byte) {
	n := len(s.idx)
	s.idx = append(s.idx, idx)
	if n == len(s.vals) {
		s.vals = append(s.vals, nil)
	}
	s.vals[n] = append(s.vals[n][:0], val...)
}

// checkScan judges a 16-pair scan from o.idx: every key of the universe is
// live in the scanned workloads, so the result must be exactly the next 16
// indexes, each with a value its owner could have written.
func (w *worker) checkScan(o *op, k *keyspace, s *scanned, scratch *[]byte, err error) {
	if err != nil {
		w.checkWrite(o, err)
		return
	}
	ok := len(s.idx) == scanPairs
	for j := 0; ok && j < scanPairs; j++ {
		idx := o.idx + uint32(j)
		want := w.wantVersion(o.ks, idx)
		if s.idx[j] != int64(idx) {
			ok = false
		} else if k.fam == famU64 {
			ok = checkU64(s.u64[j], k.key(idx), want)
		} else {
			ok = checkValue(s.vals[j], k.key(idx), want, k.valLen(idx), scratch)
		}
	}
	if !ok {
		w.mismatched++
		w.complain("%s from idx %d: got %d pairs %v", kindNames[o.kind], o.idx, len(s.idx), s.idx)
	}
}

// kvIdx decodes a scanned byte key back to its index, or -1.
func (k *keyspace) kvIdx(key []byte) int64 {
	if len(key) != kvKeyLen {
		return -1
	}
	idx := binary.BigEndian.Uint64(key[8:])
	if idx >= uint64(k.n) {
		return -1
	}
	var want [kvKeyLen]byte
	if !bytes.Equal(key, k.kvKey(&want, uint32(idx))) {
		return -1
	}
	return int64(idx)
}

// embedExec calls a store.Session directly.
type embedExec struct {
	wl      *workload
	ss      *store.Session
	key, hi [kvKeyLen]byte
	val     []byte // value being written
	got     []byte // value read back
	scratch []byte
	scan    scanned
}

func newEmbedExec(wl *workload, st *store.Store) *embedExec {
	return &embedExec{wl: wl, ss: st.NewSession()}
}

func (x *embedExec) drain(*worker) {}
func (x *embedExec) close()        { x.ss.Close() }

func (x *embedExec) do(w *worker, o *op, timed bool) {
	k := &x.wl.ks[o.ks]
	key := k.key(o.idx)
	var t0 int64
	start := func() {
		if timed {
			t0 = now()
		}
	}
	stop := func() {
		if timed {
			w.observe(o.kind, layerStore, t0, now())
		}
	}
	switch o.kind {
	case opGet:
		start()
		v, ok, err := x.ss.Get(key)
		stop()
		x.judgeRead(w, o, ok, ok && checkU64(v, key, o.ver), err)
	case opPut:
		start()
		err := x.ss.Put(key, u64val(key, o.ver))
		stop()
		w.checkWrite(o, err)
	case opDelete:
		start()
		existed, err := x.ss.Delete(key)
		stop()
		w.checkDelete(o, existed, err)
	case opGetBytes:
		start()
		got, ok, err := x.ss.GetBytes(key, x.got[:0])
		stop()
		x.got = got
		x.judgeRead(w, o, ok, ok && checkValue(got, key, o.ver, k.valLen(o.idx), &x.scratch), err)
	case opPutBytes:
		x.val = fillValue(x.val, key, o.ver, k.valLen(o.idx))
		start()
		err := x.ss.PutBytes(key, x.val)
		stop()
		w.checkWrite(o, err)
	case opGetKV:
		bk := k.kvKey(&x.key, o.idx)
		start()
		got, ok, err := x.ss.GetKV(bk, x.got[:0])
		stop()
		x.got = got
		x.judgeRead(w, o, ok, ok && checkValue(got, key, o.ver, k.valLen(o.idx), &x.scratch), err)
	case opPutKV:
		bk := k.kvKey(&x.key, o.idx)
		x.val = fillValue(x.val, key, o.ver, k.valLen(o.idx))
		start()
		err := x.ss.PutKV(bk, x.val)
		stop()
		w.checkWrite(o, err)
	case opDeleteKV:
		bk := k.kvKey(&x.key, o.idx)
		start()
		existed, err := x.ss.DeleteKV(bk)
		stop()
		w.checkDelete(o, existed, err)
	case opScan:
		x.scan.reset()
		start()
		kvs, err := x.ss.ScanLimit(key, k.key(uint32(k.n-1)), scanPairs)
		for _, kv := range kvs {
			x.scan.idx = append(x.scan.idx, int64(kv.Key-k.base))
			x.scan.u64 = append(x.scan.u64, kv.Val)
		}
		stop()
		w.checkScan(o, k, &x.scan, &x.scratch, err)
	case opScanBytes:
		x.scan.reset()
		start()
		err := x.ss.ScanBytes(key, k.key(uint32(k.n-1)), scanPairs, func(key uint64, val []byte) bool {
			x.scan.addValue(int64(key-k.base), val)
			return true
		})
		stop()
		w.checkScan(o, k, &x.scan, &x.scratch, err)
	case opScanKV:
		x.scan.reset()
		lo, hi := k.kvKey(&x.key, o.idx), k.kvKey(&x.hi, uint32(k.n-1))
		start()
		err := x.ss.ScanKV(lo, hi, scanPairs, func(key, val []byte) bool {
			x.scan.addValue(k.kvIdx(key), val)
			return true
		})
		stop()
		w.checkScan(o, k, &x.scan, &x.scratch, err)
	case opCommit:
		x.commit(w, o, k, timed)
	}
	w.ops++
}

// commit runs one transaction: Begin, the reads, the writes, Commit. Each
// Txn.Get is a read sample and the Commit the write sample.
func (x *embedExec) commit(w *worker, o *op, k *keyspace, timed bool) {
	tx := x.ss.Begin()
	for i, idx := range o.ridx {
		key := k.key(idx)
		var t0 int64
		if timed {
			t0 = now()
		}
		v, ok, err := tx.Get(key)
		if timed {
			w.observe(opGet, layerStore, t0, now())
		}
		r := op{kind: opGet, idx: idx, ver: o.rver[i]}
		x.judgeRead(w, &r, ok, ok && checkU64(v, key, r.ver), err)
	}
	for i, idx := range o.widx {
		key := k.key(idx)
		if err := tx.Put(key, u64val(key, o.wver[i])); err != nil {
			w.checkWrite(o, err)
		}
	}
	var t0 int64
	if timed {
		t0 = now()
	}
	err := tx.Commit()
	if timed {
		w.observe(opCommit, layerStore, t0, now())
	}
	w.checkWrite(o, err)
}

// netExec issues asynchronous calls on one client.Conn and keeps up to
// window of them in flight, reaping the oldest first. window 1 is the
// synchronous client: one request per round trip. A connection's requests
// execute in arrival order, so the model, advanced at issue, stays exact.
type netExec struct {
	wl       *workload
	c        *client.Conn
	ring     []netSlot
	head     int
	inflight int
	scratch  []byte
	scan     scanned
}

type netSlot struct {
	call *client.Call
	o    op
	t0   int64
	val  []byte // PutBytes captures its value by reference until completion
}

func newNetExec(wl *workload, c *client.Conn) *netExec {
	return &netExec{wl: wl, c: c, ring: make([]netSlot, wl.window)}
}

func (x *netExec) close() { x.c.Close() }

func (x *netExec) drain(w *worker) {
	for x.inflight > 0 {
		x.reap(w)
	}
}

func (x *netExec) do(w *worker, o *op, _ bool) {
	k := &x.wl.ks[o.ks]
	key := k.key(o.idx)
	s := &x.ring[(x.head+x.inflight)%len(x.ring)]
	s.o = *o
	if o.kind == opPutBytes {
		s.val = fillValue(s.val, key, o.ver, k.valLen(o.idx))
	}
	s.t0 = now()
	switch o.kind {
	case opGet:
		s.call = x.c.GetAsync(key)
	case opPut:
		s.call = x.c.PutAsync(key, u64val(key, o.ver))
	case opGetBytes:
		s.call = x.c.GetBytesAsync(key)
	case opPutBytes:
		s.call = x.c.PutBytesAsync(key, s.val)
	case opScanBytes:
		s.call = x.c.ScanBytesAsync(key, k.key(uint32(k.n-1)), scanPairs)
	default:
		panic("benchmark: no wire call for " + kindNames[o.kind])
	}
	if len(w.issue) < maxSamples {
		w.issue = append(w.issue, int32(now()-s.t0))
	}
	x.inflight++
	w.windowSum += int64(x.inflight)
	if x.inflight == len(x.ring) {
		x.reap(w)
	}
}

// reap waits for the oldest call and checks its response.
func (x *netExec) reap(w *worker) {
	s := &x.ring[x.head]
	x.head = (x.head + 1) % len(x.ring)
	x.inflight--
	err := s.call.Wait()
	w.observe(s.o.kind, layerClient, s.t0, now())
	w.ops++
	o, resp := &s.o, &s.call.Resp
	k := &x.wl.ks[o.ks]
	key := k.key(o.idx)
	found := resp.Status == wire.StatusOK
	switch o.kind {
	case opGet:
		w.checkRead(o, found, found && checkU64(resp.Val, key, o.ver), err)
	case opGetBytes:
		w.checkRead(o, found, found && checkValue(resp.VVal, key, o.ver, k.valLen(o.idx), &x.scratch), err)
	case opScanBytes:
		x.scan.reset()
		for _, p := range resp.VPairs {
			x.scan.addValue(int64(p.Key-k.base), p.Val)
		}
		w.checkScan(o, k, &x.scan, &x.scratch, err)
	default:
		w.checkWrite(o, err)
	}
}
