package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/txnlog"
)

// Multi-key ACID transactions. A Txn buffers writes — fixed-width and
// byte-string keyed — in a volatile write-set with read-your-writes, and
// Commit makes them durable atomically across any number of shards with
// ONE record in one crash-consistent redo log (internal/txnlog):
//
//  1. Group the write-set by shard and encode ALL of it, in one
//     deterministic order (fixed keys ascending, then byte keys
//     ascending), into one commit-record payload; bring every
//     fixed-width op to its leaf in one batched descent (descendFixed).
//  2. Lock every key stripe the write-set names exclusively, in ascending
//     (shard, stripe) order — all of a shard's stripes where its ops
//     append to its value log (byte keys) — so commits serialise per key
//     and plain writers of those keys drain (see shardGC.stripes). Then
//     take a redo log: the first whose tlMu is free, trying shards from
//     the transaction's HOME shard (its first participating one) up;
//     when every one is busy, wait for the home shard's. A lone committer
//     therefore always writes its home shard's log.
//  3. Pre-flight: the record must fit that log (ErrTxnTooLarge), neither
//     it nor any participating shard's log that no commit holds may still
//     hold records (ErrReopenRequired), projected bucket rewrites must
//     fit the record bound (ErrBucketOverflow), and the value logs must
//     admit the projected append volume (ErrNoSpace). Nothing is written
//     yet, so failure aborts with the store untouched.
//  4. Append the commit record — the whole write-set — to the log taken.
//     The append is one flush+fence of the record's own lines and is
//     durable when it returns (the log has no tail word; a record is
//     published by its flush and validated at recovery by CRC and log
//     generation). THE DURABLE RECORD IS THE COMMIT POINT: a crash image
//     either holds it whole, and recovery replays it on every shard it
//     names, or does not hold it, and nothing was applied. A failed
//     append left nothing behind, so it is still a clean abort; that
//     includes ErrNoSpace from creating the log, which happens here on
//     the first commit to take it (redoLog: two more flushes, once).
//  5. Apply the write-set to the trees, shard by shard, through
//     Session.apply — the one body plain writes go through too
//     (idempotent final-value puts and deletes), a fixed-width op starting
//     at the leaf its descent reached — then truncate the log (one
//     generation bump, one flushed line) and unlock.
//
// A k-key, s-shard commit of fixed-width overwrites therefore costs
// 1 record + k applies + 1 truncation, one flush call and one fence each:
// k+2 fences whatever s is, and lines(record)+k+1 flushed lines
// (TestTxnPersistBudget gates both at equality, and the 2 the first commit
// to take a shard's log adds for creating it).
//
// Recovery (Reopen → recoverTxns) is one rule: a transaction is committed
// iff a KindCommit record carrying its ID is durable in ANY shard's log,
// and every record of a committed ID has its payload decoded and its ops
// routed to shards BY KEY (ShardFor / ShardForKey), not by the log the
// record was found in. For an image this writer produced that is the
// commit record's own payload. For an image a crashed commit of the
// earlier intent-per-shard protocol left behind it is that protocol's
// KindIntent records, committed by its payload-less KindCommit mark; the
// writer below never appends a KindIntent. Records of uncommitted IDs are
// discarded. A replay of ops a crashed commit already applied is harmless
// because the ops carry final values. Recovery replays EVERY shard
// before truncating ANY log: each replayed write is durable through the
// ordinary crash-consistent single-key paths, so a crash mid-replay just
// replays again at the next reopen, while the logs — and with them the
// one record that commits the transaction — stay intact until no shard
// needs them. At every consistent crash cut, of the commit or of recovery
// itself, this yields all-or-nothing: before the record no effect is
// visible (applies had not started); after it, replay completes the
// transaction. Several logs may hold records at a crash — one per commit
// in flight — but replay order across them cannot matter: a commit
// truncates its record before it unlocks, and its stripes cover every key
// the record names, so at most one un-truncated record names any key.
//
// A Commit that fails AFTER its commit point (an apply error — not a
// crash) returns ErrTxnIncomplete and latches the store
// read-only: the committed transaction's redo record is still in the log
// it took, awaiting replay, and a further commit taking that log would
// truncate it — durably losing a committed transaction — while any
// further plain write could be silently superseded when Reopen replays
// it. Until the pools are reopened, every mutation fails with
// ErrReopenRequired; reads keep working.
//
// Isolation is write-side only: commits serialise against each other and
// against plain writers per key (the key stripes), so commits over
// disjoint stripes run side by side, each in its own redo log; readers
// never block — a concurrent Get/Scan may observe a subset of a committing
// transaction's writes, matching the store's read-uncommitted scans.

// Errors of the transaction API.
var (
	// ErrTxnDone reports an operation on a transaction that was already
	// committed or rolled back.
	ErrTxnDone = errors.New("store: transaction already finished")
	// ErrTxnTooLarge reports a Commit whose whole encoded write-set, as
	// one redo record, exceeds the capacity of the redo log it took
	// (Options.TxnLogCap). Nothing was written; the transaction may be
	// retried in pieces.
	ErrTxnTooLarge = errors.New("store: transaction exceeds redo-log capacity")
	// ErrTxnIncomplete reports a Commit that reached its commit point but
	// failed while applying to the trees. The transaction IS committed:
	// its redo record survives, and the next Reopen replays it to
	// completion. The store latches read-only — every further mutation,
	// plain or transactional, fails with ErrReopenRequired — so nothing
	// can truncate or overtake the pending replay before the reopen.
	ErrTxnIncomplete = errors.New("store: committed transaction applied incompletely (redo log retained for reopen)")
	// ErrReopenRequired reports a mutation refused because an earlier
	// Commit on this store failed after its commit point
	// (ErrTxnIncomplete): the committed transaction's redo record is
	// still in a shard's log awaiting replay, so the store only serves
	// reads. A further commit taking that log would truncate the record
	// as part of its own cleanup — durably losing the
	// committed transaction — and a further plain write could be silently
	// superseded when Reopen replays it. Reopen the pools to replay the
	// pending transaction and clear the condition.
	ErrReopenRequired = errors.New("store: committed transaction awaits replay; store is read-only until reopened")
)

// Redo-record payload encoding: a flat sequence of ops, each
//
//	kind 1 (put):      0x01, key u64, val u64
//	kind 2 (delete):   0x02, key u64
//	kind 3 (put-kv):   0x03, klen u16, vlen u32, key bytes, val bytes
//	kind 4 (delete-kv):0x04, klen u16, key bytes
//
// all little-endian. Decoding is fail-closed: exact consumption, length
// caps, no partial results (see walkTxnPayload).
//
// The kinds double as the store's op kinds: every mutation, plain or
// transactional, is one txnOp handed to Session.apply, and the per-op
// latency histograms are indexed by kind (see opNames). Kinds from
// opPutBytes on exist in memory only — the decoder rejects them, so no
// redo record can carry one.
const (
	txnOpPut    = 1
	txnOpDelete = 2
	txnOpPutKV  = 3
	txnOpDelKV  = 4

	// opPutBytes is the varlen write (key, bval); it never joins a
	// write-set. The kinds after it name operations that are not txnOps at
	// all and only index the histograms.
	opPutBytes = iota + 1
	opGet
	opPutBatch
	opScan
	opGetBytes
	opScanBytes
	opGetKV
	opScanKV
	opTxnCommit
	numOps
)

// txnOp is one write operation: decoded from a redo record, planned by a
// commit, or built by a plain write on its way through Session.mutate.
// Fixed-width ops use key/val, byte-key ops bkey/bval, opPutBytes key/bval.
// (Kept at nine words: the commit and apply loops copy it by value, and a
// tenth word put a runtime.duffcopy on every copy.)
type txnOp struct {
	kind byte
	key  uint64
	val  uint64
	bkey []byte
	bval []byte
}

// keyed reports whether op is a byte-key write: a bucket rewrite of its
// key's prefix, which may append to the shard's value log.
func (op txnOp) keyed() bool {
	return op.kind == txnOpPutKV || op.kind == txnOpDelKV
}

// appends reports whether op may append to its shard's value log: a varlen
// put or a byte-key write. The shard's records bit is set before it applies.
func (op txnOp) appends() bool {
	return op.kind == opPutBytes || op.keyed()
}

// treeKey returns the tree key op writes: its u64 key, or its byte key's
// prefix.
func (op txnOp) treeKey() uint64 {
	if op.keyed() {
		return PackPrefix(op.bkey)
	}
	return op.key
}

// validate checks op's caller-supplied sizes: what Session.mutate refuses
// before taking the close gate and Txn refuses before buffering.
func (op txnOp) validate() error {
	limit := MaxKVValue
	switch op.kind {
	case opPutBytes:
		limit = MaxValue
	case txnOpPutKV, txnOpDelKV:
		if err := checkKey(op.bkey); err != nil {
			return err
		}
	}
	if len(op.bval) > limit {
		return fmt.Errorf("%w: %d > %d bytes", ErrValueTooLarge, len(op.bval), limit)
	}
	return nil
}

// appendTxnOp appends op's encoding to dst.
func appendTxnOp(dst []byte, op txnOp) []byte {
	var w [8]byte
	dst = append(dst, op.kind)
	switch op.kind {
	case txnOpPut:
		binary.LittleEndian.PutUint64(w[:], op.key)
		dst = append(dst, w[:]...)
		binary.LittleEndian.PutUint64(w[:], op.val)
		dst = append(dst, w[:]...)
	case txnOpDelete:
		binary.LittleEndian.PutUint64(w[:], op.key)
		dst = append(dst, w[:]...)
	case txnOpPutKV:
		binary.LittleEndian.PutUint16(w[:2], uint16(len(op.bkey)))
		binary.LittleEndian.PutUint32(w[2:6], uint32(len(op.bval)))
		dst = append(dst, w[:6]...)
		dst = append(dst, op.bkey...)
		dst = append(dst, op.bval...)
	case txnOpDelKV:
		binary.LittleEndian.PutUint16(w[:2], uint16(len(op.bkey)))
		dst = append(dst, w[:2]...)
		dst = append(dst, op.bkey...)
	}
	return dst
}

// errBadTxnPayload is the internal decode failure; recovery wraps it.
var errBadTxnPayload = errors.New("malformed transaction redo payload")

// walkTxnPayload decodes a redo-record payload, calling visit per op. It is
// fail-closed like parseBucket: the payload must consume exactly, kinds
// must be known, byte keys must be 1..MaxKey bytes and values at most
// MaxKVValue — anything else is errBadTxnPayload, never a partial parse.
// The bkey/bval slices alias b.
func walkTxnPayload(b []byte, visit func(op txnOp) bool) error {
	for off := 0; off < len(b); {
		op := txnOp{kind: b[off]}
		off++
		switch op.kind {
		case txnOpPut:
			if len(b)-off < 16 {
				return errBadTxnPayload
			}
			op.key = binary.LittleEndian.Uint64(b[off:])
			op.val = binary.LittleEndian.Uint64(b[off+8:])
			off += 16
		case txnOpDelete:
			if len(b)-off < 8 {
				return errBadTxnPayload
			}
			op.key = binary.LittleEndian.Uint64(b[off:])
			off += 8
		case txnOpPutKV:
			if len(b)-off < 6 {
				return errBadTxnPayload
			}
			kl := int(binary.LittleEndian.Uint16(b[off:]))
			vl := int(binary.LittleEndian.Uint32(b[off+2:]))
			off += 6
			if kl < 1 || kl > MaxKey || vl > MaxKVValue || kl+vl > len(b)-off {
				return errBadTxnPayload
			}
			op.bkey = b[off : off+kl : off+kl]
			op.bval = b[off+kl : off+kl+vl : off+kl+vl]
			off += kl + vl
		case txnOpDelKV:
			if len(b)-off < 2 {
				return errBadTxnPayload
			}
			kl := int(binary.LittleEndian.Uint16(b[off:]))
			off += 2
			if kl < 1 || kl > MaxKey || kl > len(b)-off {
				return errBadTxnPayload
			}
			op.bkey = b[off : off+kl : off+kl]
			off += kl
		default:
			return errBadTxnPayload
		}
		if !visit(op) {
			return nil
		}
	}
	return nil
}

// decodeTxnOps decodes a full redo-record payload (fail-closed).
func decodeTxnOps(b []byte) ([]txnOp, error) {
	var ops []txnOp
	if err := walkTxnPayload(b, func(op txnOp) bool {
		ops = append(ops, op)
		return true
	}); err != nil {
		return nil, err
	}
	return ops, nil
}

// txnWrite is a buffered fixed-width write; txnKVWrite a buffered
// byte-key write. del=true buffers a delete. (Kept this small on purpose:
// the write-set maps are a commit's largest allocation.)
type txnWrite struct {
	val uint64
	del bool
}
type txnKVWrite struct {
	val []byte
	del bool
}

// Txn is one in-flight transaction: a volatile write-set over a Session.
// Use it from the session's goroutine only. Writes buffer locally with
// read-your-writes; nothing touches the store until Commit. A Txn is
// single-use: after Commit or Rollback every method fails with ErrTxnDone.
type Txn struct {
	ss    *Session
	fixed map[uint64]txnWrite   // taken by the first fixed-width write
	kv    map[string]txnKVWrite // made by the first byte-key write
	done  bool
}

// Begin opens a transaction over this session. The session stays usable
// for plain operations while the transaction buffers (they see the store,
// not the write-set), but Commit must not race other operations on the
// same session — the session's single-goroutine contract already
// guarantees that.
func (ss *Session) Begin() *Txn {
	return &Txn{ss: ss}
}

// spareWriteSet bounds the fixed-width write-set a finished transaction
// hands back to its session for the next one: small transactions, the
// common case, then make no map, and a huge one does not pin its table.
const spareWriteSet = 64

// finish marks the transaction done and hands a small fixed-width
// write-set map back to the session. The finished Txn keeps no map, so
// nothing it is called with afterwards can reach the next transaction's
// write-set.
func (tx *Txn) finish() {
	tx.done = true
	if tx.fixed != nil && len(tx.fixed) <= spareWriteSet {
		clear(tx.fixed)
		tx.ss.spareFixed = tx.fixed
	}
	tx.fixed = nil
}

// buffer records op as its key's pending write (the last one wins),
// refusing what Session.mutate would refuse of the same op. The maps are
// taken on first use — the fixed-width one from the session's spare when
// it has one — so a transaction only pays for the families it touches; a
// byte key and value are copied, so the caller may reuse its slices
// immediately.
func (tx *Txn) buffer(op txnOp) error {
	if tx.done {
		return ErrTxnDone
	}
	if err := op.validate(); err != nil {
		return err
	}
	if !op.keyed() {
		if tx.fixed == nil {
			tx.fixed, tx.ss.spareFixed = tx.ss.spareFixed, nil
			if tx.fixed == nil {
				tx.fixed = make(map[uint64]txnWrite)
			}
		}
		tx.fixed[op.key] = txnWrite{val: op.val, del: op.kind == txnOpDelete}
		return nil
	}
	if tx.kv == nil {
		tx.kv = make(map[string]txnKVWrite)
	}
	tx.kv[string(op.bkey)] = txnKVWrite{val: append([]byte(nil), op.bval...), del: op.kind == txnOpDelKV}
	return nil
}

// Put buffers a fixed-width write of val under key.
func (tx *Txn) Put(key, val uint64) error {
	return tx.buffer(txnOp{kind: txnOpPut, key: key, val: val})
}

// Delete buffers a fixed-width delete of key.
func (tx *Txn) Delete(key uint64) error {
	return tx.buffer(txnOp{kind: txnOpDelete, key: key})
}

// PutKV buffers a byte-key write. Key and value are copied, so the caller
// may reuse its slices immediately. Size limits match Session.PutKV.
func (tx *Txn) PutKV(key, val []byte) error {
	return tx.buffer(txnOp{kind: txnOpPutKV, bkey: key, bval: val})
}

// DeleteKV buffers a byte-key delete.
func (tx *Txn) DeleteKV(key []byte) error {
	return tx.buffer(txnOp{kind: txnOpDelKV, bkey: key})
}

// Get reads through the write-set: a buffered write or delete answers
// locally, anything else reads the store (read-committed — concurrent
// writers are visible).
func (tx *Txn) Get(key uint64) (uint64, bool, error) {
	if tx.done {
		return 0, false, ErrTxnDone
	}
	if w, ok := tx.fixed[key]; ok {
		return w.val, !w.del, nil
	}
	return tx.ss.Get(key)
}

// GetKV reads a byte key through the write-set, falling back to the store.
func (tx *Txn) GetKV(key, dst []byte) ([]byte, bool, error) {
	if tx.done {
		return dst, false, ErrTxnDone
	}
	if w, ok := tx.kv[string(key)]; ok {
		return append(dst, w.val...), !w.del, nil
	}
	return tx.ss.GetKV(key, dst)
}

// Pending returns the number of buffered writes (deletes included).
func (tx *Txn) Pending() int { return len(tx.fixed) + len(tx.kv) }

// Rollback discards the write-set. The store is untouched; a finished
// transaction rolls back as a no-op.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	tx.finish()
}

// Commit atomically applies the write-set, following the redo-log
// protocol in the package comment above. When it returns nil every write
// is durable and visible; on any error before the commit point the store
// is untouched (ErrTxnTooLarge, ErrNoSpace, ErrBucketOverflow, ErrClosed,
// or a validation error); ErrTxnIncomplete means committed-but-unapplied
// (reopen to finish). An empty transaction commits as a no-op.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	ss := tx.ss
	defer tx.finish()
	if len(tx.fixed)+len(tx.kv) == 0 {
		return nil
	}
	t0, err := ss.gate(false)
	if err != nil {
		return err
	}
	defer ss.clock(opTxnCommit, t0)
	pl := tx.plan()
	ss.descendFixed(pl)
	err = tx.commitLocked(pl)
	ss.s.release()
	for _, i := range pl.stale {
		ss.maybeGC(i)
	}
	// The scratch outlives the transaction; its byte keys and values
	// must not.
	for _, i := range pl.parts {
		clear(pl.ops[i])
	}
	return err
}

// txnPlan is Commit's working set, kept on the Session (single-goroutine
// by contract) so a steady stream of commits re-plans without allocating:
// the sorted key lists, the per-shard decoded ops, how many of them are
// fixed-width (they come first) and the mask of key stripes they name, the
// whole write-set encoded as one commit-record payload, the participating
// shards ascending (parts[0] is the home shard), and the shards whose
// displaced records turned stale.
type txnPlan struct {
	keys    []uint64
	kvKeys  []string
	ops     [][]txnOp
	fixed   []int
	stripes []uint64
	payload []byte
	parts   []int
	stale   []int
}

// add routes op to its shard's apply list and stripe mask and appends its
// encoding to the commit-record payload. A byte-key op claims every stripe
// of its shard: it appends to the shard's value log, whose space the
// pre-flight admits for the whole commit.
func (pl *txnPlan) add(s *Store, op txnOp) {
	i := s.shardOfOp(op)
	pl.ops[i] = append(pl.ops[i], op)
	if op.keyed() {
		pl.stripes[i] = ^uint64(0)
	} else {
		pl.fixed[i]++
		pl.stripes[i] |= 1 << stripeOf(op.key)
	}
	pl.payload = appendTxnOp(pl.payload, op)
}

// shardOfOp returns the shard op's key lives on. Commit and recovery both
// route by it, so a record is replayed where its writes were applied
// whichever shard's log it was found in.
func (s *Store) shardOfOp(op txnOp) int {
	if op.keyed() {
		return s.ShardForKey(op.bkey)
	}
	return s.ShardFor(op.key)
}

// plan walks the write-set in deterministic order (fixed keys ascending,
// then byte keys ascending), grouping the ops by shard for the apply phase
// and encoding all of them, in that one order, as the commit record's
// payload.
func (tx *Txn) plan() *txnPlan {
	s := tx.ss.s
	pl := &tx.ss.plan
	if pl.ops == nil {
		pl.ops = make([][]txnOp, len(s.shards))
		pl.fixed = make([]int, len(s.shards))
		pl.stripes = make([]uint64, len(s.shards))
	}
	for i := range pl.ops {
		pl.ops[i] = pl.ops[i][:0]
	}
	clear(pl.fixed)
	clear(pl.stripes)
	pl.keys, pl.kvKeys, pl.parts, pl.stale = pl.keys[:0], pl.kvKeys[:0], pl.parts[:0], pl.stale[:0]
	pl.payload = pl.payload[:0]
	for k := range tx.fixed {
		pl.keys = append(pl.keys, k)
	}
	slices.Sort(pl.keys)
	for _, k := range pl.keys {
		w := tx.fixed[k]
		op := txnOp{kind: txnOpPut, key: k, val: w.val}
		if w.del {
			op = txnOp{kind: txnOpDelete, key: k}
		}
		pl.add(s, op)
	}
	for k := range tx.kv {
		pl.kvKeys = append(pl.kvKeys, k)
	}
	slices.Sort(pl.kvKeys)
	for _, k := range pl.kvKeys {
		w := tx.kv[k]
		bk := []byte(k)
		op := txnOp{kind: txnOpPutKV, bkey: bk, bval: w.val}
		if w.del {
			op = txnOp{kind: txnOpDelKV, bkey: bk}
		}
		pl.add(s, op)
	}
	for i, ops := range pl.ops {
		if len(ops) != 0 {
			pl.parts = append(pl.parts, i)
		}
	}
	return pl
}

// step invokes the consistent-cut test hook, if armed.
func (s *Store) step() {
	if s.commitStep != nil {
		s.commitStep()
	}
}

// commitLocked runs the locked portion of Commit, leaving in pl.stale the
// shards whose displaced records turned stale (the caller runs maybeGC
// after the locks are down). See the protocol comment at the top of the
// file.
func (tx *Txn) commitLocked(pl *txnPlan) error {
	ss := tx.ss
	s := ss.s
	parts := pl.parts
	for _, i := range parts {
		stripes := &s.shards[i].gc.stripes
		for m := pl.stripes[i]; m != 0; m &= m - 1 {
			stripes[bits.TrailingZeros64(m)].acquire(true, s.met)
		}
	}
	defer func() {
		for _, i := range parts {
			stripes := &s.shards[i].gc.stripes
			for m := pl.stripes[i]; m != 0; m &= m - 1 {
				stripes[bits.TrailingZeros64(m)].Unlock()
			}
		}
	}()
	own := s.takeRedoLog(pl)
	defer s.shards[own].gc.tlMu.Unlock()

	// Pre-flight: everything that can refuse must refuse before the
	// first byte hits the redo log, so failure is a clean abort. With the
	// write-set's stripes held exclusively no other writer can move the
	// projections. Checked under the locks so a commit racing the failing
	// one cannot slip past before the latch is set.
	if s.txnFailed.Load() {
		return ErrReopenRequired
	}
	// A log no commit has taken yet does not exist: the one the record
	// append below creates will have the configured capacity.
	capacity := s.opts.TxnLogCap
	if tl := s.shards[own].gc.tl; tl != nil {
		capacity = tl.Capacity()
	}
	if need := txnlog.RecordSize(len(pl.payload)); need > capacity {
		return fmt.Errorf("%w: a %d-byte record for the write-set, shard %d's log holds %d",
			ErrTxnTooLarge, need, own, capacity)
	}
	if err := s.requireEmptyLog(own); err != nil {
		return err
	}
	for _, i := range parts {
		// A participant's log another commit holds carries that commit's
		// record, which names none of this commit's keys.
		if gc := s.shards[i].gc; i != own && gc.tlMu.TryLock() {
			err := s.requireEmptyLog(i)
			gc.tlMu.Unlock()
			if err != nil {
				return err
			}
		}
		if err := ss.admitTxnOps(i, pl.ops[i]); err != nil {
			return err
		}
	}

	// The commit record: the whole write-set, one append to the log this
	// commit holds, durable on return — the commit point. Append refuses
	// before it writes, so a failure here left nothing behind.
	tl, err := s.redoLog(own, ss.ths[own])
	if err == nil {
		err = tl.Append(ss.ths[own], s.txnSeq.Add(1), txnlog.KindCommit, pl.payload)
	}
	if err != nil {
		return fmt.Errorf("store: txn commit record on shard %d: %w", own, err)
	}
	s.step()
	// Apply through the body plain writes use (Session.apply), each
	// fixed-width op from the leaf descendFixed brought it to.
	at := ss.lookups
	for _, i := range parts {
		var aerr error
		var stale bool
		if s.applyFault != nil {
			aerr = s.applyFault(i)
		}
		if aerr == nil {
			stale, aerr = ss.applyOps(i, pl.ops[i], at[:pl.fixed[i]])
		}
		at = at[pl.fixed[i]:]
		if stale {
			pl.stale = append(pl.stale, i)
		}
		if aerr != nil {
			// Past the commit point with the apply unfinished: latch the
			// store read-only (see ErrReopenRequired) so the surviving
			// redo record reaches the next Reopen intact.
			s.txnFailed.Store(true)
			return fmt.Errorf("%w: apply on shard %d: %v", ErrTxnIncomplete, i, aerr)
		}
		s.step()
	}
	// The transaction is fully applied; drop the redo record.
	tl.Truncate(ss.ths[own])
	s.step()
	return nil
}

// descendFixed brings every fixed-width op of the plan to its leaf in one
// batched descent (core.Descend: the descents advance together, each
// prefetching the node it steps to), leaving in ss.lookups one lookup per
// fixed-width op, shard by shard in plan order, whose leaf its apply starts
// from. A descent takes no latch and has no effect, and the store never
// frees a tree node while it runs, so an apply from such a leaf is the one
// it would make from the root: latching the leaf moves right past any split
// since.
func (ss *Session) descendFixed(pl *txnPlan) {
	ls := ss.lookups[:0]
	for _, i := range pl.parts {
		for _, op := range pl.ops[i][:pl.fixed[i]] {
			ls = append(ls, core.Lookup{Tree: ss.s.shards[i].ix, Th: ss.ths[i], Key: op.key})
		}
	}
	core.Descend(ls)
	ss.lookups = ls
}

// takeRedoLog locks and returns the shard whose redo log the commit planned
// in pl writes: the first whose tlMu is free, trying shards from the home
// shard up (wrapping), or else the home shard's once it frees. A lone
// committer therefore always writes its home shard's log. A shard with no
// log yet is taken only if the commit takes part in it: creating the log
// spends pool space, and on a shard the commit holds no stripe of, another
// commit may hold all of them with that space admitted for its value-log
// appends.
func (s *Store) takeRedoLog(pl *txnPlan) int {
	home, n := pl.parts[0], len(s.shards)
	for d := 0; d < n; d++ {
		i := (home + d) % n
		gc := s.shards[i].gc
		if !gc.tlMu.TryLock() {
			continue
		}
		if gc.tl != nil || len(pl.ops[i]) != 0 {
			return i
		}
		gc.tlMu.Unlock()
	}
	s.shards[home].gc.tlMu.Lock()
	return home
}

// requireEmptyLog refuses, latching the store, when shard i's redo log —
// whose tlMu the caller holds — is not empty at commit entry: a committed
// transaction's record still awaits replay there (its apply or truncation
// never finished). In the log a commit writes, its truncation would erase
// that record; in a participant's, the record's replay would supersede the
// commit's applies. The store stays read-only until reopened.
func (s *Store) requireEmptyLog(i int) error {
	if tl := s.shards[i].gc.tl; tl != nil && tl.Len() != 0 {
		s.txnFailed.Store(true)
		return fmt.Errorf("%w (shard %d redo log holds %d bytes)", ErrReopenRequired, i, tl.Len())
	}
	return nil
}

// redoLog returns shard i's transaction redo log, creating it on the first
// commit to take it: a store that never commits pays no TxnLogCap bytes for
// it, and neither does a shard whose log no commit ever took. The caller
// holds the shard's tlMu, which is what publishes the handle to the next
// commit to take it (or, in tests, has the store to itself). A pool too
// full for the region fails the commit with ErrNoSpace while it is still
// abortable — nothing has been appended anywhere. A crash between the
// region's allocation and the root-slot store leaves the slot empty; the
// next commit allocates again.
func (s *Store) redoLog(i int, th *pmem.Thread) (*txnlog.Log, error) {
	sh := s.shards[i]
	if sh.gc.tl == nil {
		tl, err := txnlog.Create(sh.pool, th, txnSlot, s.opts.TxnLogCap)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d redo log: %v", ErrNoSpace, i, err)
		}
		sh.gc.tl = tl
	}
	return sh.gc.tl, nil
}

// admitTxnOps pre-admits shard i's byte-key rewrites: every touched
// prefix must currently hold a valid bucket (or nothing), projected
// bucket images must fit the record bound, and the value log must admit
// the projected append volume (admit: one inline compaction attempt before
// refusing). With the shard's stripes held exclusively (a commit with
// byte-key ops on a shard holds all of them) only GC can move words, and
// relocation preserves content and sizes.
func (ss *Session) admitTxnOps(i int, ops []txnOp) error {
	need := 0
	for _, op := range ops {
		switch op.kind {
		case txnOpPutKV:
			p := PackPrefix(op.bkey)
			cur, err := ss.projectBucket(i, p)
			if err != nil {
				return err
			}
			proj := cur + kvEntryHdr + len(op.bkey) + len(op.bval)
			if proj > maxBucket {
				return fmt.Errorf("%w: prefix %#x projected at %d bytes", ErrBucketOverflow, p, proj)
			}
			need += proj
		case txnOpDelKV:
			// A delete rewrites the bucket minus one entry: bounded by
			// the current image.
			cur, err := ss.projectBucket(i, PackPrefix(op.bkey))
			if err != nil {
				return err
			}
			need += cur
		}
	}
	if need == 0 {
		return nil
	}
	return ss.admit(i, need)
}

// projectBucket resolves and validates prefix p's current bucket on
// shard i, returning its payload size (0 when the prefix is vacant).
// Unlike the plain path's advisory Ref-length projection (appendNeed), a
// commit's pre-flight must fully validate here: a prefix whose word was written
// through a uint64 API — or any payload failing bucket parse — would
// otherwise surface only inside the apply phase, AFTER the commit point,
// turning a client-addressable state error (ErrNotKeyed) into
// ErrTxnIncomplete and a latched store.
func (ss *Session) projectBucket(i int, p uint64) (size int, err error) {
	b, _, ok, err := ss.resolve(i, p, 0, false, ss.kvBuf[:0], ErrNotKeyed)
	if err != nil || !ok {
		return 0, err
	}
	ss.kvBuf = b
	if perr := parseBucket(p, b, func(_, _ []byte) bool { return true }); perr != nil {
		return 0, wrapReadErr(ErrNotKeyed, p, perr)
	}
	return len(b), nil
}

// recoverTxns settles the redo logs during Reopen by one rule: a
// transaction is committed iff a KindCommit record with its ID is durable
// in any shard's log, and every record of a committed ID is replayed — its
// ops routed to shards by key (shardOfOp), idempotently, since they carry
// final values. That covers this writer's images (the commit record is the
// write-set) and images of the earlier intent-per-shard protocol (KindIntent
// records committed by a payload-less KindCommit mark) alike. Records of
// uncommitted IDs are discarded, and all logs end truncated. Runs after
// every shard's index, value log and accounting are rebuilt; replayed
// writes go through the ordinary apply paths and feed the ordinary
// accounting.
//
// Recovery itself must survive a crash, so it runs in three strict
// phases — decode everything, replay everything, then truncate
// everything. Replay-before-truncate is the load-bearing order: ONE log
// holds the record that commits the transaction, and truncating it before
// every shard replayed would erase the commit point — a second crash would
// then leave a committed transaction half-applied with nothing to finish
// it from.
// With the phase order, a crash anywhere during replay leaves every log
// (and every commit record) intact for the next recovery to redo
// idempotently, and a crash anywhere during truncation is past the point
// where every shard's effects are durably applied, so surviving records —
// committed or orphaned — describe writes the trees already hold.
func (s *Store) recoverTxns() error {
	ss := s.NewSession()
	defer ss.Close()
	var recs []txnlog.Rec
	committed := map[uint64]bool{}
	for i := range s.shards {
		tl := s.shards[i].gc.tl
		if tl == nil {
			continue // never a home shard: no log, nothing to settle
		}
		tl.Scan(ss.ths[i], func(r txnlog.Rec) bool {
			recs = append(recs, r)
			if r.Kind == txnlog.KindCommit {
				committed[r.ID] = true
			}
			return true
		})
	}
	if len(recs) == 0 {
		return nil
	}
	// Phase 1: decode every committed record, fail-closed — an undecodable
	// payload aborts recovery before anything is applied or truncated.
	ops := make([][]txnOp, len(s.shards))
	for _, r := range recs {
		if !committed[r.ID] {
			continue
		}
		decoded, err := decodeTxnOps(r.Payload)
		if err != nil {
			return fmt.Errorf("store: txn %d recovery: %w", r.ID, err)
		}
		for _, op := range decoded {
			i := s.shardOfOp(op)
			ops[i] = append(ops[i], op)
		}
	}
	// Phase 2: replay every shard. Each replayed write is durable through
	// the ordinary crash-consistent single-key paths before the loop
	// moves on; no log is touched yet.
	for i := range s.shards {
		if len(ops[i]) == 0 {
			continue
		}
		if _, err := ss.applyOps(i, ops[i], nil); err != nil {
			return fmt.Errorf("store: shard %d txn replay: %w", i, err)
		}
		s.step()
	}
	// Phase 3: every shard's effects are durable; drop the logs.
	for i := range s.shards {
		if tl := s.shards[i].gc.tl; tl != nil {
			tl.Truncate(ss.ths[i])
		}
		s.step()
	}
	return nil
}
