package store

import (
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
)

// Session is a goroutine's handle on the store. It owns one pmem.Thread per
// shard, so callers never thread *pmem.Thread by hand: open one Session per
// goroutine, use it from that goroutine only, and Close it to fold its
// latency statistics back into the shard pools.
//
// Any number of Sessions may operate concurrently; the underlying FAST+FAIR
// shards give lock-free reads and per-node writer latches. A Session may
// outlive its Store: every operation on a closed store fails with ErrClosed
// instead of touching released shard state.
type Session struct {
	s   *Store
	ths []*pmem.Thread

	// The u64 scans' reusable state (see mergeScan): each shard's current
	// page and the cursor into it, the pre-built per-shard collector
	// closures, the current page size, and ScanLimit's merged output
	// buffer. All lazily sized on first use and reused so steady-state
	// bounded scans are allocation-free.
	scanBufs [][]KV
	scanCur  []int
	collect  []func(uint64, uint64) bool
	scanMax  int
	scanOut  []KV

	// valBuf is the reusable value buffer behind ScanBytes callbacks.
	valBuf []byte

	// recordReads counts the value-log records this session's resolutions
	// read, retries included (see resolve): what a scan's cost scales with.
	recordReads uint64

	// The byte-key API's reusable state (see kv.go): kvBuf holds the
	// current bucket image being read, kvNew the rewritten image being
	// built, kvRefs one page of collected (prefix, ref) pairs, kvRuns the
	// per-shard entry runs ScanKV merges.
	kvBuf  []byte
	kvNew  []byte
	kvRefs []KV
	kvRuns []kvRun

	// lookups is the reusable batch of GetBatch, one per key, and of a
	// commit's descent, one per fixed-width op (Session.descendFixed).
	lookups []core.Lookup

	// plan is Commit's reusable working set (see txnPlan), and spareFixed
	// the cleared fixed-width write-set map the last finished transaction
	// handed back for the next one (see Txn.finish).
	plan       txnPlan
	spareFixed map[uint64]txnWrite

	// opTick drives latency sampling (see gate). Plain field: a Session is
	// single-goroutine by contract.
	opTick uint32
}

// gate is the one preamble of every clocked operation, read or write: the
// close gate (ErrClosed) and, for a plain write, the read-only latch of an
// incomplete commit (ErrReopenRequired, see Store.txnFailed; a commit checks
// it under its locks). One operation in opSampleMask+1 reads the clock into
// t0 — two reads cost ~100ns on some hosts, a fifth of a Get — so only a
// histogram's _count reflects samples, not operations. The caller releases
// the gate and hands t0 to clock; done does both at once.
func (ss *Session) gate(write bool) (t0 time.Time, err error) {
	s := ss.s
	if !s.acquire() {
		return t0, ErrClosed
	}
	if write && s.txnFailed.Load() {
		s.release()
		return t0, ErrReopenRequired
	}
	if ss.opTick++; ss.opTick&opSampleMask == 0 {
		t0 = time.Now()
	}
	return t0, nil
}

// clock charges an operation gate sampled to kind's latency histogram.
func (ss *Session) clock(kind byte, t0 time.Time) {
	if !t0.IsZero() {
		ss.s.met.op[kind].RecordSince(t0)
	}
}

// done ends an operation that held the gate throughout.
func (ss *Session) done(kind byte, t0 time.Time) {
	ss.clock(kind, t0)
	ss.s.release()
}

// doneReading is done for an operation that reads value-log records: it
// also adds the records read since the call began, from, to kind's count.
func (ss *Session) doneReading(kind byte, t0 time.Time, from uint64) {
	ss.s.met.recordsRead[kind].Add(ss.recordReads - from)
	ss.done(kind, t0)
}

// NewSession returns a fresh Session bound to the calling goroutine. It may
// be called even on a closed store — the resulting session then fails every
// operation with ErrClosed — so connection handlers racing a shutdown have
// no panic window.
func (s *Store) NewSession() *Session {
	ths := make([]*pmem.Thread, len(s.shards))
	for i, sh := range s.shards {
		ths[i] = sh.pool.NewThread()
	}
	return &Session{s: s, ths: ths}
}

// Close folds the session's per-shard statistics into the pools. The
// Session must not be used afterwards.
func (ss *Session) Close() {
	for _, th := range ss.ths {
		th.Release()
	}
	ss.ths = nil
}

// KV is one key-value pair, the batch-put unit.
type KV struct {
	Key, Val uint64
}

// mutate is the single funnel every plain (non-transactional) write goes
// through — Put, Delete, PutBytes, PutKV and DeleteKV are one txnOp each —
// in this order:
//
//	validate → close gate → read-only latch → sampled latency clock, by
//	op kind → shard of the key → value-log space admission → the key's
//	stripe → apply → unlock → release the gate → automatic GC trigger
//
// Validation failures touch nothing. The gate (Session.gate) is held
// until the write is applied and dropped before the GC trigger, which
// re-acquires it: a long pass never delays Close observing the write's
// completion, and the pass runs outside every lock and grace section (see
// gc.go). Admission runs before any lock, because its slow path may
// compact (see admit). It reports whether the key existed.
func (ss *Session) mutate(op txnOp) (existed bool, err error) {
	if err := op.validate(); err != nil {
		return false, err
	}
	s := ss.s
	t0, err := ss.gate(true)
	if err != nil {
		return false, err
	}
	defer ss.clock(op.kind, t0)
	i := s.shardOfOp(op)
	if op.appends() && !s.shards[i].gc.records.Load() {
		ss.noteRecords(i)
	}
	if need := ss.appendNeed(i, op); need >= 0 {
		if err := ss.admit(i, need); err != nil {
			s.release()
			return false, err
		}
	}
	existed, stale, err := ss.applyShared(i, op)
	s.release()
	if stale {
		ss.maybeGC(i)
	}
	return existed, err
}

// applyShared applies op to shard i as a plain write, holding its key's
// stripe, which is what fences it against a transaction commit naming the
// key (see shardGC.stripes): shared, except for a byte-key write, whose
// bucket rewrite needs its prefix to itself. It is the one place a plain
// write takes a stripe — by mutate, and by PutBatch for each of its pairs.
func (ss *Session) applyShared(i int, op txnOp) (existed, stale bool, err error) {
	st := &ss.s.shards[i].gc.stripes[stripeOf(op.treeKey())]
	excl := op.keyed()
	st.acquire(excl, ss.s.met)
	defer st.release(excl)
	return ss.apply(i, op, core.Leaf{})
}

// noteRecords sets shard i's records bit ahead of a plain write that may
// append to the shard's value log. It takes every stripe of the shard
// exclusively, in ascending order as a commit does, so the bit turns while
// no u64 write stands between its read of the bit and its apply. The caller
// holds no stripe.
func (ss *Session) noteRecords(i int) {
	gc := ss.s.shards[i].gc
	for j := range gc.stripes {
		gc.stripes[j].acquire(true, ss.s.met)
	}
	gc.records.Store(true)
	for j := range gc.stripes {
		gc.stripes[j].Unlock()
	}
}

// applyOps applies shard i's ops in order, stopping at the first error, and
// reports whether any displaced record turned stale. ops[j] starts at
// at[j]'s leaf for every j < len(at) (a commit's fixed-width ops, see
// descendFixed), every other op at the root. The caller holds the ops'
// stripes exclusively (Txn.Commit) or is the only mutator (recovery
// replay). Before an op that may append to the shard's value log it sets the
// shard's records bit, which both callers may: a commit holds every stripe
// of a shard it has a byte-key op on.
func (ss *Session) applyOps(i int, ops []txnOp, at []core.Lookup) (stale bool, err error) {
	gc := ss.s.shards[i].gc
	for j, op := range ops {
		if op.appends() && !gc.records.Load() {
			gc.records.Store(true)
		}
		var leaf core.Leaf
		if j < len(at) {
			leaf = at[j].Leaf()
		}
		_, st, err := ss.apply(i, op, leaf)
		stale = stale || st
		if err != nil {
			return stale, err
		}
	}
	return stale, nil
}

// apply is the one body behind every write to shard i's tree, whoever
// issues it: a plain write (mutate), a PutBatch group, a commit's apply
// phase, recovery's replay. Each case is one failure-atomic 8-byte store
// into the tree — an upsert, a remove, or a byte-key op's bucket install —
// and every displaced word that may name a value-log record goes through
// retireWord, the one place stale bytes are counted. It reports whether the
// key existed and whether a displaced log record turned stale (the caller
// runs maybeGC once its locks are down). The caller holds the key's stripe
// (applyShared, Txn.Commit) or is the only mutator (recovery replay).
//
// A u64 write reads the shard's records bit under that stripe. While it is
// clear no word of the tree names a record, so the write neither reads the
// word it displaces (a box load) nor retires it; once set, the displaced
// word is read and retired. A u64 write starts at leaf at — where a
// commit's batched descent left it — or, given the zero Leaf, at the root.
//
// A varlen put appends its record and installs the Ref inside one grace
// section on the shard thread: a GC fence must not complete while a record
// exists whose ref is still on its way into the tree, or the pass could
// judge that record dead, free its extent, and let the install land on
// recycled memory (see gc.go). A section excludes nobody — writers never
// wait on each other here. An install that fails leaves the appended record
// leaked until GC finds it dead; the operation itself failed cleanly.
func (ss *Session) apply(i int, op txnOp, at core.Leaf) (existed, stale bool, err error) {
	sh := &ss.s.shards[i]
	th := ss.ths[i]
	var old uint64
	switch op.kind {
	case txnOpPut:
		recs := sh.gc.records.Load()
		old, existed, err = sh.ix.UpsertFrom(th, at, op.key, op.val, recs)
		return existed, recs && err == nil && existed && old != op.val && ss.retireWord(i, op.key, old), err
	case txnOpDelete:
		recs := sh.gc.records.Load()
		old, existed = sh.ix.RemoveFrom(th, at, op.key, recs)
		return existed, recs && existed && ss.retireWord(i, op.key, old), nil
	case opPutBytes:
		th.Enter()
		defer th.Exit()
		ref, aerr := sh.vl.Append(th, op.key, op.bval)
		if aerr != nil {
			return false, false, spaceErr(i, aerr)
		}
		old, existed, err = sh.ix.Exchange(th, op.key, uint64(ref))
		return existed, err == nil && existed && ss.retireWord(i, op.key, old), err
	default: // txnOpPutKV, txnOpDelKV
		return ss.rewriteBucket(i, PackPrefix(op.bkey), op)
	}
}

// Put stores val under key, replacing any existing value. Completed Puts
// are persistent; an in-flight Put is atomic under any crash. Overwriting
// a key that held a varlen value retires the old log record through the
// same accounting funnel as PutBytes (see retireWord). On a closed store
// it returns ErrClosed.
func (ss *Session) Put(key, val uint64) error {
	_, err := ss.mutate(txnOp{kind: txnOpPut, key: key, val: val})
	return err
}

// Get returns the value stored under key. On a closed store it returns
// ErrClosed.
func (ss *Session) Get(key uint64) (uint64, bool, error) {
	t0, err := ss.gate(false)
	if err != nil {
		return 0, false, err
	}
	defer ss.done(opGet, t0)
	i := ss.s.ShardFor(key)
	v, ok := ss.s.shards[i].ix.Get(ss.ths[i], key)
	return v, ok, nil
}

// GetBatch looks up every key of keys at once, setting vals[i] and found[i]
// to what Get(keys[i]) would return; vals and found must be at least as
// long as keys. The keys' tree descents advance together, one step each in
// turn, each prefetching the node it steps to, so their node reads overlap;
// the leaf reads then run in key order. Descents are lock-free reads with no effect, so the batch answers
// exactly what its Gets run one after another would. On a closed store it
// returns ErrClosed and sets nothing.
func (ss *Session) GetBatch(keys, vals []uint64, found []bool) error {
	vals, found = vals[:len(keys)], found[:len(keys)]
	t0, err := ss.gate(false)
	if err != nil {
		return err
	}
	defer ss.s.release()
	ls := ss.lookups[:0]
	for _, k := range keys {
		i := ss.s.ShardFor(k)
		ls = append(ls, core.Lookup{Tree: ss.s.shards[i].ix, Th: ss.ths[i], Key: k})
	}
	core.GetBatch(ls)
	for i := range ls {
		vals[i], found[i] = ls[i].Val, ls[i].Found
	}
	ss.lookups = ls
	// A sampled batch records its per-key share once for each key, so the
	// Get histogram's samples keep tracking Gets.
	if !t0.IsZero() && len(keys) > 0 {
		share := int64(time.Since(t0)) / int64(len(keys))
		for range keys {
			ss.s.met.op[opGet].Record(share)
		}
	}
	return nil
}

// Delete removes key, reporting whether it was present. A varlen key's log
// record is retired to the garbage accounting (and may trigger automatic
// GC); a fixed-width key's displaced word fails the record validation and
// feeds nothing — on a shard whose tree never named a record it is not even
// read — so the reclaim stats stay consistent whichever API wrote the key.
// On a closed store it returns ErrClosed.
func (ss *Session) Delete(key uint64) (bool, error) {
	return ss.mutate(txnOp{kind: txnOpDelete, key: key})
}

// PutBatch groups the pairs by shard and inserts each group on its own
// goroutine, so a bulk load drives every shard in parallel from one call.
// Pairs within a shard apply in slice order (later duplicates win); each
// pair is individually atomic, there is no cross-pair transaction. The
// first error aborts that shard's remaining pairs and is returned.
// Displaced varlen records retire through the same accounting funnel as
// every other write path, and shards whose batch created garbage may run
// an automatic GC pass before PutBatch returns. On a closed store it
// returns ErrClosed without applying any pair.
func (ss *Session) PutBatch(pairs []KV) error {
	if len(pairs) == 0 {
		return nil
	}
	t0, err := ss.gate(true)
	if err != nil {
		return err
	}
	defer ss.clock(opPutBatch, t0)
	n := len(ss.ths)
	groups := make([][]KV, n)
	for _, kv := range pairs {
		i := ss.s.ShardFor(kv.Key)
		groups[i] = append(groups[i], kv)
	}
	errs := make(chan error, n)
	stale := make([]bool, n)
	active := 0
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		active++
		go func(i int, g []KV) {
			var err error
			for _, kv := range g {
				var st bool
				if _, st, err = ss.applyShared(i, txnOp{kind: txnOpPut, key: kv.Key, val: kv.Val}); st {
					stale[i] = true
				}
				if err != nil {
					break
				}
			}
			errs <- err
		}(i, g)
	}
	var first error
	for ; active > 0; active-- {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	ss.s.release()
	for i, st := range stale {
		if st {
			ss.maybeGC(i)
		}
	}
	return first
}

// Len counts the keys across all shards (full scans; not a hot path). On a
// closed store it returns ErrClosed.
func (ss *Session) Len() (int, error) {
	if !ss.s.acquire() {
		return 0, ErrClosed
	}
	defer ss.s.release()
	total := 0
	for i, sh := range ss.s.shards {
		total += sh.ix.Len(ss.ths[i])
	}
	return total, nil
}
