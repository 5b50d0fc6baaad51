package store

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/txnlog"
)

// Unit coverage for the transaction API: write-set semantics
// (read-your-writes, last-write-wins), commit visibility and durability
// across Reopen, rollback, single-use enforcement, size limits, and the
// intent-payload codec. Crash atomicity lives in txn_crash_test.go.

func TestTxnCommitVisibleAndDurable(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()

	// Pre-existing state the transaction overwrites and deletes.
	if err := ss.Put(100, 1); err != nil {
		t.Fatal(err)
	}
	if err := ss.Put(200, 2); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutKV([]byte("pre-over"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutKV([]byte("pre-del"), []byte("doomed")); err != nil {
		t.Fatal(err)
	}

	tx := ss.Begin()
	// Spread fixed keys across all shards.
	for k := uint64(0); k < 64; k++ {
		if err := tx.Put(1000+k, k*k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Put(100, 11); err != nil { // overwrite
		t.Fatal(err)
	}
	if err := tx.Delete(200); err != nil { // delete existing
		t.Fatal(err)
	}
	if err := tx.Delete(201); err != nil { // delete absent: no-op
		t.Fatal(err)
	}
	if err := tx.PutKV([]byte("txn-new"), bytes.Repeat([]byte{0x5a}, 500)); err != nil {
		t.Fatal(err)
	}
	if err := tx.PutKV([]byte("pre-over"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteKV([]byte("pre-del")); err != nil {
		t.Fatal(err)
	}
	if got := tx.Pending(); got != 64+3+3 {
		t.Fatalf("Pending = %d, want %d", got, 64+3+3)
	}

	// Nothing visible before commit.
	if _, ok, _ := ss.Get(1000); ok {
		t.Fatal("buffered write visible before commit")
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	check := func(ss *Session, tag string) {
		t.Helper()
		for k := uint64(0); k < 64; k++ {
			v, ok, err := ss.Get(1000 + k)
			if err != nil || !ok || v != k*k {
				t.Fatalf("%s: key %d: v=%d ok=%v err=%v", tag, 1000+k, v, ok, err)
			}
		}
		if v, ok, _ := ss.Get(100); !ok || v != 11 {
			t.Fatalf("%s: overwrite lost (v=%d ok=%v)", tag, v, ok)
		}
		if _, ok, _ := ss.Get(200); ok {
			t.Fatalf("%s: deleted key still present", tag)
		}
		if v, ok, _ := ss.GetKV([]byte("txn-new"), nil); !ok || !bytes.Equal(v, bytes.Repeat([]byte{0x5a}, 500)) {
			t.Fatalf("%s: txn-new wrong (ok=%v len=%d)", tag, ok, len(v))
		}
		if v, ok, _ := ss.GetKV([]byte("pre-over"), nil); !ok || string(v) != "new" {
			t.Fatalf("%s: pre-over = %q ok=%v", tag, v, ok)
		}
		if _, ok, _ := ss.GetKV([]byte("pre-del"), nil); ok {
			t.Fatalf("%s: pre-del survived its delete", tag)
		}
	}
	check(ss, "after commit")
	ss.Close()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	re, err := Reopen(st.Pools(), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rs := re.NewSession()
	check(rs, "after reopen")
	rs.Close()
	re.Close()
}

func TestTxnRollbackAndSingleUse(t *testing.T) {
	st, err := Open(Options{Shards: 1, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	tx := ss.Begin()
	if err := tx.Put(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tx.PutKV([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if _, ok, _ := ss.Get(1); ok {
		t.Fatal("rolled-back write reached the store")
	}
	if _, ok, _ := ss.GetKV([]byte("k"), nil); ok {
		t.Fatal("rolled-back byte-key write reached the store")
	}
	// Every method on a finished transaction fails with ErrTxnDone.
	if err := tx.Put(2, 2); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Put after rollback: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Commit after rollback: %v", err)
	}
	if _, _, err := tx.Get(1); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Get after rollback: %v", err)
	}
	tx.Rollback() // double rollback is a no-op

	tx2 := ss.Begin()
	if err := tx2.Commit(); err != nil { // empty commit: no-op
		t.Fatalf("empty commit: %v", err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second commit: %v", err)
	}
}

func TestTxnReadYourWrites(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	if err := ss.Put(7, 70); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutKV([]byte("base"), []byte("store")); err != nil {
		t.Fatal(err)
	}

	tx := ss.Begin()
	defer tx.Rollback()
	// Fall-through to the store for unbuffered keys.
	if v, ok, err := tx.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("fall-through Get: v=%d ok=%v err=%v", v, ok, err)
	}
	if v, ok, err := tx.GetKV([]byte("base"), nil); err != nil || !ok || string(v) != "store" {
		t.Fatalf("fall-through GetKV: %q ok=%v err=%v", v, ok, err)
	}
	// Buffered writes shadow the store; buffered deletes hide it.
	if err := tx.Put(7, 71); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tx.Get(7); !ok || v != 71 {
		t.Fatalf("buffered Get: v=%d ok=%v", v, ok)
	}
	if err := tx.Delete(7); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx.Get(7); ok {
		t.Fatal("buffered delete not visible to Get")
	}
	if err := tx.PutKV([]byte("base"), []byte("txn")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tx.GetKV([]byte("base"), nil); !ok || string(v) != "txn" {
		t.Fatalf("buffered GetKV: %q ok=%v", v, ok)
	}
	if err := tx.DeleteKV([]byte("base")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx.GetKV([]byte("base"), nil); ok {
		t.Fatal("buffered byte-key delete not visible")
	}
	// Last write wins: the delete above is the final buffered state, and
	// the store still holds the original until commit.
	if v, ok, _ := ss.Get(7); !ok || v != 70 {
		t.Fatalf("store mutated before commit: v=%d ok=%v", v, ok)
	}
}

func TestTxnLastWriteWinsAfterCommit(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	tx := ss.Begin()
	for i := 0; i < 5; i++ { // repeated overwrites collapse to the last
		if err := tx.Put(42, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Delete(43); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(43, 430); err != nil { // delete then put: put wins
		t.Fatal(err)
	}
	if err := tx.PutKV([]byte("flip"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteKV([]byte("flip")); err != nil { // put then delete: delete wins
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := ss.Get(42); !ok || v != 4 {
		t.Fatalf("key 42: v=%d ok=%v, want 4", v, ok)
	}
	if v, ok, _ := ss.Get(43); !ok || v != 430 {
		t.Fatalf("key 43: v=%d ok=%v, want 430", v, ok)
	}
	if _, ok, _ := ss.GetKV([]byte("flip"), nil); ok {
		t.Fatal("flip should have ended deleted")
	}
}

func TestTxnTooLarge(t *testing.T) {
	// A deliberately tiny redo log: one 4KiB-payload op cannot fit a
	// 1KiB log, and the pre-flight must refuse before writing anything.
	st, err := Open(Options{Shards: 1, ShardSize: 8 << 20, TxnLogCap: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	tx := ss.Begin()
	if err := tx.PutKV([]byte("big"), bytes.Repeat([]byte{1}, 4<<10)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnTooLarge) {
		t.Fatalf("commit: %v, want ErrTxnTooLarge", err)
	}
	// Clean abort: the store is untouched and fully usable.
	if _, ok, _ := ss.GetKV([]byte("big"), nil); ok {
		t.Fatal("aborted write visible")
	}
	tx2 := ss.Begin()
	if err := tx2.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("small txn after abort: %v", err)
	}
	if v, ok, _ := ss.Get(1); !ok || v != 1 {
		t.Fatalf("post-abort commit lost: v=%d ok=%v", v, ok)
	}
}

// TestTxnTooLargeBoundary pins what ErrTxnTooLarge measures: the WHOLE
// encoded write-set — every shard's ops — plus the record header, against
// the home shard's log capacity. A write-set whose record fills the log to
// the byte commits; one byte more aborts with the store untouched, whether
// the capacity is still the configured one (no log yet) or the log's own.
func TestTxnTooLargeBoundary(t *testing.T) {
	const logCap = 1 << 10
	st, err := Open(Options{Shards: 2, ShardSize: 8 << 20, TxnLogCap: logCap})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	keys := spreadKeys(t, st, 2, 2) // one fixed-width put on each shard
	bkey := []byte("k")
	// Two puts at 17 bytes, one put-kv at 7 + len(key) + len(val): pick the
	// value that makes the record exactly logCap bytes.
	fit := logCap - int(txnlog.RecordSize(0)) - 2*17 - 7 - len(bkey)
	commit := func(vlen int) error {
		tx := ss.Begin()
		for _, k := range keys {
			if err := tx.Put(k, uint64(vlen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.PutKV(bkey, bytes.Repeat([]byte{7}, vlen)); err != nil {
			t.Fatal(err)
		}
		return tx.Commit()
	}
	requireUntouched := func(tag string, want uint64, present bool) {
		t.Helper()
		for _, k := range keys {
			if v, ok, _ := ss.Get(k); ok != present || v != want {
				t.Fatalf("%s: key %d reads (%d, %v), want (%d, %v)", tag, k, v, ok, want, present)
			}
		}
		if v, ok, _ := ss.GetKV(bkey, nil); ok != present || (present && len(v) != int(want)) {
			t.Fatalf("%s: byte key reads %d bytes, present=%v", tag, len(v), ok)
		}
	}

	if err := commit(fit + 1); !errors.Is(err, ErrTxnTooLarge) {
		t.Fatalf("one byte over, no log yet: %v, want ErrTxnTooLarge", err)
	}
	requireUntouched("refused before any log", 0, false)
	requireNoRedoLogs(t, st)
	if err := commit(fit); err != nil {
		t.Fatalf("record of exactly %d bytes: %v", logCap, err)
	}
	requireUntouched("exact fit", uint64(fit), true)
	if err := commit(fit + 1); !errors.Is(err, ErrTxnTooLarge) {
		t.Fatalf("one byte over, existing log: %v, want ErrTxnTooLarge", err)
	}
	requireUntouched("refused against the log", uint64(fit), true)
	if n := st.shards[0].gc.tl.Len(); n != 0 {
		t.Fatalf("home log holds %d bytes after a refused commit", n)
	}
}

func TestTxnBufferValidation(t *testing.T) {
	st, err := Open(Options{Shards: 1, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	tx := ss.Begin()
	defer tx.Rollback()

	if err := tx.PutKV(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := tx.PutKV(bytes.Repeat([]byte{1}, MaxKey+1), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := tx.PutKV([]byte("k"), make([]byte, MaxKVValue+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	if err := tx.DeleteKV(nil); err == nil {
		t.Fatal("empty delete key accepted")
	}
	// The caller's slices are copied at buffer time.
	k, v := []byte("mut"), []byte("val-1")
	if err := tx.PutKV(k, v); err != nil {
		t.Fatal(err)
	}
	v[0] = 'X'
	if got, ok, _ := tx.GetKV([]byte("mut"), nil); !ok || string(got) != "val-1" {
		t.Fatalf("buffered value aliased caller slice: %q ok=%v", got, ok)
	}
}

func TestTxnCommitOnClosedStore(t *testing.T) {
	st, err := Open(Options{Shards: 1, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	tx := ss.Begin()
	if err := tx.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	ss.Close()
	st.Close()
	if err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit on closed store: %v, want ErrClosed", err)
	}
}

// TestTxnPayloadCodecRoundTrip drives the intent codec over a mixed op
// sequence and checks an exact decoded round-trip.
func TestTxnPayloadCodecRoundTrip(t *testing.T) {
	ops := []txnOp{
		{kind: txnOpPut, key: 0, val: ^uint64(0)},
		{kind: txnOpDelete, key: 1<<60 | 7},
		{kind: txnOpPutKV, bkey: []byte("k"), bval: nil},
		{kind: txnOpPutKV, bkey: bytes.Repeat([]byte{0xee}, MaxKey), bval: bytes.Repeat([]byte{9}, 3000)},
		{kind: txnOpDelKV, bkey: []byte("gone")},
	}
	var payload []byte
	for _, op := range ops {
		payload = appendTxnOp(payload, op)
	}
	got, err := decodeTxnOps(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i, op := range ops {
		g := got[i]
		if g.kind != op.kind || g.key != op.key || g.val != op.val ||
			!bytes.Equal(g.bkey, op.bkey) || !bytes.Equal(g.bval, op.bval) {
			t.Fatalf("op %d: got %+v want %+v", i, g, op)
		}
	}
	// Fail-closed: truncation at any interior byte must error, never
	// yield a partial parse that silently drops ops.
	for cut := 1; cut < len(payload); cut++ {
		if _, err := decodeTxnOps(payload[:cut]); err == nil {
			// A cut can only be valid if it falls exactly on an op
			// boundary; verify it decodes a strict prefix in that case.
			dec, _ := decodeTxnOps(payload[:cut])
			if len(dec) >= len(ops) {
				t.Fatalf("cut %d: over-decoded", cut)
			}
		}
	}
}

// FuzzTxnLogRecord fuzzes the fail-closed intent-payload parser (the
// bytes recovery reads back out of the redo log). Any input must either
// decode cleanly — in which case re-encoding the decoded ops must
// reproduce the input exactly — or error without panicking; decoded ops
// must always satisfy the documented caps. The corpus under
// testdata/fuzz adds a raw format-2 log image (header line, an intent
// and its commit mark as they lie in the region), so mutation also starts
// from the bytes a misdirected read would hand the parser.
func FuzzTxnLogRecord(f *testing.F) {
	var seed []byte
	seed = appendTxnOp(seed, txnOp{kind: txnOpPut, key: 77, val: 777})
	seed = appendTxnOp(seed, txnOp{kind: txnOpDelete, key: 78})
	seed = appendTxnOp(seed, txnOp{kind: txnOpPutKV, bkey: []byte("fuzz-key"), bval: []byte("fuzz-val")})
	seed = appendTxnOp(seed, txnOp{kind: txnOpDelKV, bkey: []byte("fuzz-del")})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{txnOpPut})
	f.Add([]byte{txnOpPutKV, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{5, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeTxnOps(data)
		if err != nil {
			return
		}
		var re []byte
		for _, op := range ops {
			switch op.kind {
			case txnOpPut, txnOpDelete:
			case txnOpPutKV:
				if len(op.bkey) < 1 || len(op.bkey) > MaxKey || len(op.bval) > MaxKVValue {
					t.Fatalf("decoded put-kv violates caps: klen=%d vlen=%d", len(op.bkey), len(op.bval))
				}
			case txnOpDelKV:
				if len(op.bkey) < 1 || len(op.bkey) > MaxKey {
					t.Fatalf("decoded del-kv violates caps: klen=%d", len(op.bkey))
				}
			default:
				t.Fatalf("decoded unknown kind %d", op.kind)
			}
			re = appendTxnOp(re, op)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input does not round-trip: %d in, %d out", len(data), len(re))
		}
	})
}

// TestTxnReopenAfterManyCommits interleaves transactions with plain
// writes and reopens, checking the final state — the txn sequence counter
// restarting from zero across Reopen must be harmless because every log
// is truncated during recovery.
func TestTxnReopenAfterManyCommits(t *testing.T) {
	st, err := Open(Options{Shards: 3, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	for round := 0; round < 3; round++ {
		ss := st.NewSession()
		for i := 0; i < 4; i++ {
			tx := ss.Begin()
			for j := 0; j < 10; j++ {
				k := uint64(round*1000 + i*100 + j)
				if err := tx.Put(k, k*3); err != nil {
					t.Fatal(err)
				}
				want[k] = k * 3
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("round %d txn %d: %v", round, i, err)
			}
		}
		if err := ss.Put(uint64(90000+round), 1); err != nil {
			t.Fatal(err)
		}
		want[uint64(90000+round)] = 1
		ss.Close()
		re, err := Reopen(st.Pools(), Options{})
		if err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}
		st = re
	}
	ss := st.NewSession()
	for k, v := range want {
		got, ok, err := ss.Get(k)
		if err != nil || !ok || got != v {
			t.Fatalf("key %d: got=%d ok=%v err=%v want %d", k, got, ok, err, v)
		}
	}
	n, err := ss.Len()
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(want) {
		t.Fatalf("Len = %d, want %d", n, len(want))
	}
	ss.Close()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st.Close()
}

// TestTxnIncompleteLatchesStoreReadOnly drives a commit past its commit
// point into an injected apply failure and proves the store latches
// read-only: every further mutation — transactional or plain, fixed-width
// or byte-keyed — fails with ErrReopenRequired, reads keep serving, the
// redo record survives untouched in the home shard's log (the only log the
// commit made), and a Reopen replays the committed transaction on both
// shards and lifts the latch.
func TestTxnIncompleteLatchesStoreReadOnly(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()

	if err := ss.Put(10, 100); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutKV([]byte("stable"), []byte("value")); err != nil {
		t.Fatal(err)
	}

	// A cross-shard transaction whose apply phase fails on its first
	// shard: the commit record is durable, nothing is applied.
	var insertKeys []uint64
	seen := map[int]bool{}
	for k := uint64(5000); len(insertKeys) < 2; k++ {
		if sh := st.ShardFor(k); !seen[sh] {
			seen[sh] = true
			insertKeys = append(insertKeys, k)
		}
	}
	st.applyFault = func(int) error { return errors.New("injected apply fault") }
	tx := ss.Begin()
	for _, k := range insertKeys {
		if err := tx.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	err = tx.Commit()
	if !errors.Is(err, ErrTxnIncomplete) {
		t.Fatalf("faulted commit: %v, want ErrTxnIncomplete", err)
	}
	st.applyFault = nil

	// The home shard's redo log still holds the commit record — the
	// failure path must never truncate it — and it is the only log.
	if tl := st.shards[0].gc.tl; tl == nil || tl.Len() == 0 {
		t.Fatalf("home shard's redo log (%v) does not hold the record after an incomplete commit", tl)
	}
	if st.shards[1].gc.tl != nil {
		t.Fatal("non-home shard 1 was given a redo log")
	}

	// Every mutation path refuses with ErrReopenRequired.
	if err := ss.Put(11, 1); !errors.Is(err, ErrReopenRequired) {
		t.Fatalf("Put on latched store: %v", err)
	}
	if _, err := ss.Delete(10); !errors.Is(err, ErrReopenRequired) {
		t.Fatalf("Delete on latched store: %v", err)
	}
	if err := ss.PutBatch([]KV{{Key: 12, Val: 2}}); !errors.Is(err, ErrReopenRequired) {
		t.Fatalf("PutBatch on latched store: %v", err)
	}
	if err := ss.PutBytes(13, []byte("x")); !errors.Is(err, ErrReopenRequired) {
		t.Fatalf("PutBytes on latched store: %v", err)
	}
	if _, err := ss.Delete(13); !errors.Is(err, ErrReopenRequired) {
		t.Fatalf("Delete on latched store: %v", err)
	}
	if err := ss.PutKV([]byte("nope"), []byte("x")); !errors.Is(err, ErrReopenRequired) {
		t.Fatalf("PutKV on latched store: %v", err)
	}
	if _, err := ss.DeleteKV([]byte("stable")); !errors.Is(err, ErrReopenRequired) {
		t.Fatalf("DeleteKV on latched store: %v", err)
	}
	tx2 := ss.Begin()
	if err := tx2.Put(14, 3); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrReopenRequired) {
		t.Fatalf("Commit on latched store: %v", err)
	}

	// Reads keep serving the pre-transaction state.
	if v, ok, err := ss.Get(10); err != nil || !ok || v != 100 {
		t.Fatalf("Get on latched store: v=%d ok=%v err=%v", v, ok, err)
	}
	if v, ok, err := ss.GetKV([]byte("stable"), nil); err != nil || !ok || string(v) != "value" {
		t.Fatalf("GetKV on latched store: ok=%v err=%v", ok, err)
	}
	for _, k := range insertKeys {
		if _, ok, _ := ss.Get(k); ok {
			t.Fatalf("unapplied txn key %d visible", k)
		}
	}
	ss.Close()

	// Reopen replays the committed transaction and lifts the latch.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Reopen(st.Pools(), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rs := re.NewSession()
	for _, k := range insertKeys {
		if v, ok, err := rs.Get(k); err != nil || !ok || v != k+1 {
			t.Fatalf("replayed key %d: v=%d ok=%v err=%v", k, v, ok, err)
		}
	}
	if n := re.shards[0].gc.tl.Len(); n != 0 {
		t.Fatalf("home shard's redo log holds %d bytes after recovery", n)
	}
	if err := rs.Put(11, 1); err != nil {
		t.Fatalf("Put after reopen: %v", err)
	}
	tx3 := rs.Begin()
	if err := tx3.Put(15, 5); err != nil {
		t.Fatal(err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatalf("Commit after reopen: %v", err)
	}
	rs.Close()
	re.Close()
}

// TestTxnCommitRefusesNonEmptyRedoLog plants an orphan record directly in
// a shard's redo log and proves a Commit that takes that shard — as its
// home, or as any other participant — refuses with ErrReopenRequired without
// touching the log: the home shard's truncation would durably erase a record
// a crashed commit left behind, and a leftover on another participant would
// supersede this commit's applies when Reopen replays it.
func TestTxnCommitRefusesNonEmptyRedoLog(t *testing.T) {
	for planted, name := range []string{"home", "participant"} {
		t.Run(name, func(t *testing.T) {
			st, err := Open(Options{Shards: 2, ShardSize: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			ss := st.NewSession()
			tl, err := st.redoLog(planted, ss.ths[planted])
			if err != nil {
				t.Fatal(err)
			}
			if err := tl.Append(ss.ths[planted], 99, txnlog.KindIntent, []byte("orphan")); err != nil {
				t.Fatal(err)
			}
			before := tl.Len()
			// One key per shard: shard 0 is the home, shard 1 takes part.
			keys := spreadKeys(t, st, 2, 2)
			tx := ss.Begin()
			for _, k := range keys {
				if err := tx.Put(k, 2); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); !errors.Is(err, ErrReopenRequired) {
				t.Fatalf("commit over non-empty redo log: %v, want ErrReopenRequired", err)
			}
			if got := tl.Len(); got != before {
				t.Fatalf("redo log %d bytes after refused commit, was %d — commit touched it", got, before)
			}
			for _, k := range keys {
				if _, ok, _ := ss.Get(k); ok {
					t.Fatalf("refused transaction's key %d visible", k)
				}
			}
			ss.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// The uncommitted orphan is discarded at reopen and the store works.
			re, err := Reopen(st.Pools(), Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			rs := re.NewSession()
			tx2 := rs.Begin()
			for _, k := range keys {
				if err := tx2.Put(k, 2); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx2.Commit(); err != nil {
				t.Fatalf("commit after reopen: %v", err)
			}
			rs.Close()
			re.Close()
		})
	}
}

// TestTxnCrossFamilyRefusedAtPreflight points a transactional byte-key op
// at a prefix word the fixed-width API owns. The collision must refuse at
// pre-flight — a clean ErrNotKeyed abort, nothing logged, store still
// writable — not surface during apply, which would be past the commit
// point and latch the store over a client-addressable state error.
func TestTxnCrossFamilyRefusedAtPreflight(t *testing.T) {
	st, err := Open(Options{Shards: 1, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	key := []byte("family-clash")
	if err := ss.Put(PackPrefix(key), 12345); err != nil {
		t.Fatal(err)
	}
	for _, build := range []func(*Txn) error{
		func(tx *Txn) error { return tx.PutKV(key, []byte("v")) },
		func(tx *Txn) error { return tx.DeleteKV(key) },
	} {
		tx := ss.Begin()
		if err := build(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(7, 8); err != nil {
			t.Fatal(err)
		}
		err := tx.Commit()
		if !errors.Is(err, ErrNotKeyed) {
			t.Fatalf("cross-family commit: %v, want ErrNotKeyed", err)
		}
		if errors.Is(err, ErrTxnIncomplete) || errors.Is(err, ErrReopenRequired) {
			t.Fatalf("cross-family commit escalated past a clean abort: %v", err)
		}
	}
	if tl := st.shards[0].gc.tl; tl != nil && tl.Len() != 0 {
		t.Fatalf("redo log holds %d bytes after refused commits", tl.Len())
	}
	if _, ok, _ := ss.Get(7); ok {
		t.Fatal("refused transaction's write visible")
	}
	if v, ok, _ := ss.Get(PackPrefix(key)); !ok || v != 12345 {
		t.Fatal("colliding fixed-width key disturbed")
	}
	// The refusal is not sticky: an honest transaction still commits.
	tx := ss.Begin()
	if err := tx.Put(7, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx.PutKV([]byte("fine"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("honest commit after refusals: %v", err)
	}
}

// TestTxnRedoLogCreatedOnFirstCommit: a shard has no redo log — no handle,
// nothing at txnSlot, no TxnLogCap bytes taken from its pool — until its
// first commit as a home shard, across Close and Reopen; a commit creates its
// home shard's log and no other.
func TestTxnRedoLogCreatedOnFirstCommit(t *testing.T) {
	const shards, shardSize = 4, 8 << 20
	st, err := Open(Options{Shards: shards, ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	for k := uint64(0); k < 200; k++ {
		if err := ss.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	requireNoRedoLogs(t, st)
	ss.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Reopen(st.Pools(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireNoRedoLogs(t, re)
	if got, want := re.opts.TxnLogCap, int64(shardSize/16); got != want {
		t.Fatalf("reopened store would create %d-byte redo logs, the store it reopens %d", got, want)
	}
	used := make([]int64, shards)
	for i := range used {
		used[i] = re.Pool(i).Size() - re.Pool(i).FreeBytes()
	}

	rs := re.NewSession()
	defer rs.Close()
	const key = 7
	tx := rs.Begin()
	if err := tx.Put(key, 70); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("first commit after reopen: %v", err)
	}
	if v, ok, err := rs.Get(key); err != nil || !ok || v != 70 {
		t.Fatalf("committed key: v=%d ok=%v err=%v", v, ok, err)
	}
	for i := 0; i < shards; i++ {
		grew := re.Pool(i).Size() - re.Pool(i).FreeBytes() - used[i]
		switch {
		case i == re.ShardFor(key):
			if re.shards[i].gc.tl == nil || grew < re.opts.TxnLogCap {
				t.Fatalf("committing shard %d: log %v, pool grew %d bytes", i, re.shards[i].gc.tl, grew)
			}
		case re.shards[i].gc.tl != nil || grew != 0:
			t.Fatalf("shard %d took no part in the commit: log %v, pool grew %d bytes", i, re.shards[i].gc.tl, grew)
		}
	}
}

// TestTxnRedoLogNoSpaceAborts: a home shard whose pool is too full for the
// redo log fails its first commit with ErrNoSpace — a clean abort: nothing
// visible, nothing latched, no log anywhere.
func TestTxnRedoLogNoSpaceAborts(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 1 << 20, TxnLogCap: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	// One key per shard; shard 0, the lowest participant, is the home.
	keys := spreadKeys(t, st, 2, 2)
	// Fill shard 0 until its pool cannot hold the log region.
	full := st.Pool(0)
	for k := uint64(1 << 32); full.FreeBytes() >= st.opts.TxnLogCap; k++ {
		if st.ShardFor(k) != 0 {
			continue
		}
		if err := ss.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tx := ss.Begin()
	for _, k := range keys {
		if err := tx.Put(k, 5); err != nil {
			t.Fatal(err)
		}
	}
	err = tx.Commit()
	if !errors.Is(err, ErrNoSpace) || errors.Is(err, ErrTxnIncomplete) {
		t.Fatalf("commit into a full pool: %v, want a plain ErrNoSpace", err)
	}
	for _, k := range keys {
		if _, ok, _ := ss.Get(k); ok {
			t.Fatalf("aborted transaction's key %d visible", k)
		}
	}
	requireNoRedoLogs(t, st)
	// Not latched: a commit homed on shard 1 goes through.
	tx = ss.Begin()
	if err := tx.Put(keys[1], 6); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit on the shard with room: %v", err)
	}
}

// TestNonHomeShardsGetNoLog: only a transaction's home shard — its lowest
// participant — logs anything, so a store whose every commit includes shard 0
// never creates a redo log on the others: no handle, nothing at txnSlot, no
// TxnLogCap bytes taken from their pools, across Close and Reopen.
func TestNonHomeShardsGetNoLog(t *testing.T) {
	const shards = 4
	st, err := Open(Options{Shards: shards, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	for s := 1; s <= shards; s++ {
		keys := spreadKeys(t, st, 2*s, s) // shards 0..s-1, shard 0 always among them
		for round := uint64(1); round <= 3; round++ {
			tx := ss.Begin()
			for _, k := range keys {
				if err := tx.Put(k, round); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireOnlyShard0Logs := func(st *Store, tag string) {
		t.Helper()
		for i := range st.shards {
			th := st.shards[i].pool.NewThread()
			off, tl := st.shards[i].pool.Root(th, txnSlot), st.shards[i].gc.tl
			th.Release()
			if (off != 0) != (i == 0) || (tl != nil) != (i == 0) {
				t.Fatalf("%s: shard %d: txnSlot root %d, log handle %v; only shard 0 was ever a home", tag, i, off, tl)
			}
		}
	}
	requireOnlyShard0Logs(st, "before close")
	ss.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Reopen(st.Pools(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	requireOnlyShard0Logs(re, "after reopen")
	rs := re.NewSession()
	defer rs.Close()
	for _, k := range spreadKeys(t, re, 2*shards, shards) {
		if v, ok, err := rs.Get(k); err != nil || !ok || v != 3 {
			t.Fatalf("key %d after reopen: v=%d ok=%v err=%v", k, v, ok, err)
		}
	}
}

// TestRecoverLegacyIntentMarkImage hand-builds the redo-log image a crashed
// commit of the earlier protocol left behind — one KindIntent record per
// participating shard, committed by a payload-less KindCommit mark — and
// requires the one recovery rule to settle it all-or-nothing: with a mark (on
// either shard: a mark anywhere commits) every intent is replayed, without
// one every intent is discarded.
func TestRecoverLegacyIntentMarkImage(t *testing.T) {
	for _, tc := range []struct {
		name string
		mark int // shard holding the commit mark, -1 for none
	}{{"unmarked", -1}, {"mark-on-first", 0}, {"mark-on-second", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			const shards, id = 2, 41
			st, err := Open(Options{Shards: shards, ShardSize: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			ss := st.NewSession()
			keys := spreadKeys(t, st, 6, shards) // three per shard
			for _, k := range keys[:4] {
				if err := ss.Put(k, 1); err != nil {
					t.Fatal(err)
				}
			}
			bkey, preKV, postKV := []byte("legacy-kv"), []byte("before"), bytes.Repeat([]byte{0xab}, 90)
			if err := ss.PutKV(bkey, preKV); err != nil {
				t.Fatal(err)
			}
			// Per shard: one overwrite, one delete, one insert; plus a byte-key
			// overwrite wherever it hashes.
			effects := []txnEffect{{bkey: bkey, preKV: preKV, postKV: postKV}}
			ops := []txnOp{{kind: txnOpPutKV, bkey: bkey, bval: postKV}}
			for _, k := range keys[:2] {
				effects = append(effects, txnEffect{fixed: true, key: k, pre: u64p(1), post: u64p(k * 5)})
				ops = append(ops, txnOp{kind: txnOpPut, key: k, val: k * 5})
			}
			for _, k := range keys[2:4] {
				effects = append(effects, txnEffect{fixed: true, key: k, pre: u64p(1), post: nil})
				ops = append(ops, txnOp{kind: txnOpDelete, key: k})
			}
			for _, k := range keys[4:] {
				effects = append(effects, txnEffect{fixed: true, key: k, pre: nil, post: u64p(k * 7)})
				ops = append(ops, txnOp{kind: txnOpPut, key: k, val: k * 7})
			}
			intents := make([][]byte, shards)
			for _, op := range ops {
				i := st.shardOfOp(op)
				intents[i] = appendTxnOp(intents[i], op)
			}
			for i, payload := range intents {
				tl, err := st.redoLog(i, ss.ths[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := tl.Append(ss.ths[i], id, txnlog.KindIntent, payload); err != nil {
					t.Fatal(err)
				}
			}
			if tc.mark >= 0 {
				if err := st.shards[tc.mark].gc.tl.Append(ss.ths[tc.mark], id, txnlog.KindCommit, nil); err != nil {
					t.Fatal(err)
				}
			}
			ss.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Reopen(st.Pools(), Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			rs := re.NewSession()
			defer rs.Close()
			if post := checkAtomic(t, rs, effects, tc.name); post != (tc.mark >= 0) {
				t.Fatalf("recovered post-transaction = %v with mark on shard %d", post, tc.mark)
			}
			for i := range re.shards {
				if n := re.shards[i].gc.tl.Len(); n != 0 {
					t.Fatalf("shard %d redo log holds %d bytes after recovery", i, n)
				}
			}
			// The settled store commits again, under the new protocol.
			tx := rs.Begin()
			for _, k := range keys {
				if err := tx.Put(k, 9); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
		})
	}
}

// keysOffStripes returns one fixed-width key per entry of shards, on that
// shard, each in a key stripe no key of taken — nor an earlier returned
// key — occupies on its shard.
func keysOffStripes(t *testing.T, st *Store, taken []uint64, shards []int) []uint64 {
	t.Helper()
	busy := map[[2]int]bool{}
	for _, k := range taken {
		busy[[2]int{st.ShardFor(k), stripeOf(k)}] = true
	}
	keys := make([]uint64, 0, len(shards))
	for c := uint64(1 << 32); len(keys) < len(shards); c++ {
		at := [2]int{shards[len(keys)], stripeOf(c)}
		if st.ShardFor(c) == at[0] && !busy[at] {
			busy[at] = true
			keys = append(keys, c)
		}
	}
	return keys
}

// waitErr waits for what op sends on ch and fails the test unless it is nil
// and arrives within ten seconds.
func waitErr(t *testing.T, ch <-chan error, op string) {
	t.Helper()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", op)
	}
}

// TestCommitFencesPerKey pauses a commit right after its record's append —
// the commit point, with none of its applies done — and proves the fence
// it holds is its keys' stripes, not their shards: a plain Put to one of
// its keys waits for it, while a plain Put to another stripe of the same
// shard, and a second session's commit over disjoint keys on the same
// shards, go through. The second commit writes its record into another
// shard's redo log, the paused one's being taken. Once the first commit
// finishes, the waiting Put lands after it and its value is final.
func TestCommitFencesPerKey(t *testing.T) {
	const shards = 4
	st, err := Open(Options{Shards: shards, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all := []int{0, 1, 2, 3}
	keysA := spreadKeys(t, st, shards, shards)
	keysB := keysOffStripes(t, st, keysA, all)
	bystander := keysOffStripes(t, st, append(append([]uint64(nil), keysA...), keysB...), all[:1])[0]

	paused, resume := make(chan struct{}), make(chan struct{})
	var steps atomic.Int32
	var bLogs []int // the non-empty redo logs when B's record had landed
	st.commitStep = func() {
		switch steps.Add(1) {
		case 1: // A's record is durable
			close(paused)
			<-resume
		case 2: // B's record is durable; A's is still in its log
			for i := range st.shards {
				if tl := st.shards[i].gc.tl; tl != nil && tl.Len() != 0 {
					bLogs = append(bLogs, i)
				}
			}
		}
	}
	var resumeOnce sync.Once
	release := func() { resumeOnce.Do(func() { close(resume) }) }
	defer release() // a failing check must not leave A, and Close, waiting

	run := func(f func(ss *Session) error) <-chan error {
		ch := make(chan error, 1)
		go func() {
			ss := st.NewSession()
			defer ss.Close()
			ch <- f(ss)
		}()
		return ch
	}
	commit := func(keys []uint64, val uint64) func(*Session) error {
		return func(ss *Session) error {
			tx := ss.Begin()
			for _, k := range keys {
				if err := tx.Put(k, val); err != nil {
					return err
				}
			}
			return tx.Commit()
		}
	}

	aDone := run(commit(keysA, 1))
	select {
	case <-paused:
	case err := <-aDone:
		t.Fatalf("commit A returned (%v) without reaching its commit point", err)
	}
	blocked := run(func(ss *Session) error { return ss.Put(keysA[0], 2) })
	waitErr(t, run(func(ss *Session) error { return ss.Put(bystander, 3) }),
		"a plain Put to another stripe of a shard the paused commit holds")
	waitErr(t, run(commit(keysB, 4)), "a commit over disjoint keys on the paused commit's shards")
	if len(bLogs) != 2 || bLogs[0] != 0 {
		t.Fatalf("redo logs holding records with both commits past their append: %v, want shard 0's (A) and one other (B)", bLogs)
	}
	select {
	case err := <-blocked:
		t.Fatalf("a plain Put to a key of the paused commit returned (%v) before the commit did", err)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	waitErr(t, aDone, "commit A")
	waitErr(t, blocked, "the plain Put to commit A's key")
	ss := st.NewSession()
	defer ss.Close()
	want := map[uint64]uint64{keysA[0]: 2, bystander: 3}
	for _, k := range keysA[1:] {
		want[k] = 1
	}
	for _, k := range keysB {
		want[k] = 4
	}
	for k, v := range want {
		if got, ok, err := ss.Get(k); err != nil || !ok || got != v {
			t.Fatalf("key %d: got=%d ok=%v err=%v, want %d", k, got, ok, err, v)
		}
	}
	for i := range st.shards {
		if tl := st.shards[i].gc.tl; tl != nil && tl.Len() != 0 {
			t.Fatalf("shard %d redo log holds %d bytes after both commits", i, tl.Len())
		}
	}
}
