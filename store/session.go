package store

import (
	"time"

	"repro/index"
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

	// ScanLimit's reusable state: per-shard collection buffers, their
	// merge cursors, the pre-built per-shard collector closures, the
	// current per-shard pair cap, and the merged output buffer. All lazily
	// sized on first use and reused so steady-state bounded scans are
	// allocation-free.
	scanBufs [][]KV
	scanCur  []int
	collect  []func(uint64, uint64) bool
	scanMax  int
	scanOut  []KV

	// valBuf is the reusable value buffer behind ScanBytes callbacks.
	valBuf []byte

	// The byte-key API's reusable state (see kv.go): kvBuf holds the
	// current bucket image being read, kvNew the rewritten image being
	// built, kvRefs one page of collected (prefix, ref) pairs, kvRuns the
	// per-shard entry runs ScanKV merges.
	kvBuf  []byte
	kvNew  []byte
	kvRefs []KV
	kvRuns []kvRun

	// plan is Commit's reusable working set (see txnPlan).
	plan txnPlan

	// opTick drives latency sampling (see sampleOp). Plain field: a
	// Session is single-goroutine by contract.
	opTick uint32
}

// sampleOp reports whether this operation's latency should be clocked.
// Reading the clock twice costs ~100ns on some hosts — a large fraction
// of a ~0.5µs Get — so the per-op histograms observe one in every
// opSampleMask+1 operations. Quantiles over a uniform 1-in-N sample of
// the op stream converge to the true quantiles; only the histogram
// _count reflects samples, not operations (exact op counts live in the
// server's per-opcode counters).
func (ss *Session) sampleOp() bool {
	ss.opTick++
	return ss.opTick&opSampleMask == 0
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

// Put stores val under key, replacing any existing value. Completed Puts
// are persistent; an in-flight Put is atomic under any crash. Overwriting
// a key that held a varlen value retires the old log record through the
// same accounting funnel as PutBytes (see retireWord). On a closed store
// it returns ErrClosed.
func (ss *Session) Put(key, val uint64) error {
	if !ss.s.acquire() {
		return ErrClosed
	}
	if err := ss.s.writable(); err != nil {
		ss.s.release()
		return err
	}
	if ss.sampleOp() {
		defer ss.s.met.put.RecordSince(time.Now())
	}
	i := ss.s.ShardFor(key)
	gc := ss.s.shards[i].gc
	gc.applyMu.RLock()
	old, existed, err := index.Exchange(ss.s.shards[i].ix, ss.ths[i], key, val)
	stale := err == nil && existed && old != val && ss.retireWord(i, key, old)
	gc.applyMu.RUnlock()
	ss.s.release()
	if stale {
		ss.maybeGC(i)
	}
	return err
}

// Get returns the value stored under key. On a closed store it returns
// ErrClosed.
func (ss *Session) Get(key uint64) (uint64, bool, error) {
	if !ss.s.acquire() {
		return 0, false, ErrClosed
	}
	defer ss.s.release()
	if ss.sampleOp() {
		defer ss.s.met.get.RecordSince(time.Now())
	}
	i := ss.s.ShardFor(key)
	v, ok := ss.s.shards[i].ix.Get(ss.ths[i], key)
	return v, ok, nil
}

// Delete removes key, reporting whether it was present. A varlen key's log
// record is retired to the garbage accounting (and may trigger automatic
// GC); a fixed-width key's displaced word fails the record validation and
// feeds nothing, so the reclaim stats stay consistent whichever API wrote
// the key. On a closed store it returns ErrClosed.
func (ss *Session) Delete(key uint64) (bool, error) {
	if !ss.s.acquire() {
		return false, ErrClosed
	}
	if err := ss.s.writable(); err != nil {
		ss.s.release()
		return false, err
	}
	if ss.sampleOp() {
		defer ss.s.met.del.RecordSince(time.Now())
	}
	i := ss.s.ShardFor(key)
	gc := ss.s.shards[i].gc
	gc.applyMu.RLock()
	old, existed := index.Remove(ss.s.shards[i].ix, ss.ths[i], key)
	stale := existed && ss.retireWord(i, key, old)
	gc.applyMu.RUnlock()
	ss.s.release()
	if stale {
		ss.maybeGC(i)
	}
	return existed, nil
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
	if !ss.s.acquire() {
		return ErrClosed
	}
	if err := ss.s.writable(); err != nil {
		ss.s.release()
		return err
	}
	if ss.sampleOp() {
		defer ss.s.met.putBatch.RecordSince(time.Now())
	}
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
			ix, th := ss.s.shards[i].ix, ss.ths[i]
			gc := ss.s.shards[i].gc
			gc.applyMu.RLock()
			defer gc.applyMu.RUnlock()
			for _, kv := range g {
				old, existed, err := index.Exchange(ix, th, kv.Key, kv.Val)
				if err != nil {
					errs <- err
					return
				}
				if existed && old != kv.Val && ss.retireWord(i, kv.Key, old) {
					stale[i] = true
				}
			}
			errs <- nil
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
	if first != nil {
		return first
	}
	return nil
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
