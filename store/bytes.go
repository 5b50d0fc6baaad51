package store

import (
	"errors"
	"fmt"

	"repro/internal/vlog"
)

// The varlen value API. Each shard pairs its FAST+FAIR tree with a
// persistent append-only value log (internal/vlog); PutBytes appends the
// value to the shard's log and stores the returned Ref — one uint64 — in
// the tree, so the tree's 8-byte failure-atomic store discipline is
// untouched. GetBytes resolves the Ref back to bytes, validating the log
// record's owner key, header and checksum on the way.
//
// Crash atomicity composes from the two layers' own guarantees: the log
// record is fully durable before its Ref exists anywhere (the record is
// published by its own flush, and the tree insert of the Ref starts only
// after Append returns), and the tree insert is the paper's single atomic
// 8-byte store. A crash mid-PutBytes therefore leaves either no trace
// (a torn record, where Reopen's walk stops) or a leaked-but-intact record
// (record flushed, tree insert lost) — never a torn value behind a live
// key.
//
// Overwriting or deleting a varlen key turns the old record into garbage;
// the displaced tree word is fed to the shard's accounting (every write is
// one Session.apply, and every word it displaces that may name a record
// goes through retireWord, the one place stale bytes are counted), and
// value-log GC reclaims the
// space (Options.GCGarbageRatio, Session.CompactValues; see gc.go for the
// full reclamation argument).
//
// Fixed-width (Put/Get) and varlen (PutBytes/GetBytes) values share one
// tree per shard, so a single key must be used through one API
// consistently. The store cannot tell a fixed value from a Ref by looking
// at the word; it tells them apart at read time, when a fixed value fails
// the log's record validation (GetBytes on it returns ErrNotVarlen) —
// while Get on a varlen key returns the raw Ref, which is meaningless but
// harmless.

// MaxValue is the largest value PutBytes accepts: 1 MiB less the wire
// protocol's frame headroom, equal to wire.MaxValue (asserted by a server
// test) so every stored value can be served over the network.
const MaxValue = 1<<20 - 64

// Errors of the varlen API.
var (
	// ErrValueTooLarge reports a PutBytes value above MaxValue.
	ErrValueTooLarge = errors.New("store: value exceeds MaxValue")
	// ErrNotVarlen reports a GetBytes/ScanBytes of a key whose stored
	// word is not a valid value-log reference — a key written through
	// the fixed-width Put API.
	ErrNotVarlen = errors.New("store: key does not hold a varlen value")
	// ErrValueCorrupt reports a value-log record that failed its
	// checksum: the key's reference was valid but the image is damaged.
	// Unlike ErrNotVarlen this is data loss, not API misuse.
	ErrValueCorrupt = errors.New("store: varlen value failed its checksum")
	// ErrNoSpace reports a write refused because the shard's pool can no
	// longer guarantee value-log space with GC headroom intact. The store
	// degrades, it does not die: reads, deletes, and compaction keep
	// working, and the condition clears once GC (triggered by deletes and
	// overwrites, or an explicit CompactValues) frees extents.
	ErrNoSpace = errors.New("store: value log out of space")
)

// wrapReadErr classifies a value-log read (or bucket parse) failure under
// key: checksum failures are corruption, everything else — bad offset,
// header/key/ref disagreement, a payload that is no bucket — is a word the
// caller's key family did not write, reported as that family's sentinel
// (ErrNotVarlen for the varlen API, ErrNotKeyed for the byte-key API).
func wrapReadErr(notFamily error, key uint64, err error) error {
	if errors.Is(err, vlog.ErrCorrupt) {
		notFamily = ErrValueCorrupt
	}
	return fmt.Errorf("%w (key %#x): %v", notFamily, key, err)
}

// spaceErr is the one mapping from a value-log refusal — Admit's or
// Append's — to the store's errors: a pool that cannot hold the record
// (ErrFull; admission refuses early to keep GC headroom, and an Append that
// raced another writer into the last extent is the same condition) or a
// record above the log's bound (ErrTooLarge) is ErrNoSpace; anything else
// passes through wrapped.
func spaceErr(i int, err error) error {
	if errors.Is(err, vlog.ErrFull) || errors.Is(err, vlog.ErrTooLarge) {
		return fmt.Errorf("%w: shard %d: %v", ErrNoSpace, i, err)
	}
	return fmt.Errorf("store: shard %d value log: %w", i, err)
}

// admit runs value-log space admission for a write that will append need
// payload bytes to shard i's log: when the pool can no longer hold the
// append plus an extent of GC headroom, it tries one inline compaction pass
// and, if that does not clear the shortfall, fails fast with ErrNoSpace —
// before the log is grown into the last free bytes GC would need to stage
// relocations. Reads, deletes, and GC are unaffected, and the condition
// clears once compaction frees extents. It runs before the caller's grace
// section (a pass must not wait on its own caller) and, for plain writes,
// before any lock; a commit calls it with its stripes and a redo log's tlMu
// held, which a pass never takes.
//
// The pass is best-effort reclamation before refusing: a full one
// (wait=true queues behind any running pass, so its frees count too), then
// one re-check. The slow path is paid only by writers already out of
// space — and only when automatic compaction is enabled; with
// GCGarbageRatio < 0 the operator asked for manual-only GC, so admission
// refuses immediately and CompactValues is the way out.
func (ss *Session) admit(i, need int) error {
	vl := ss.s.shards[i].vl
	if vl.Admit(need) == nil {
		return nil
	}
	if ss.s.opts.GCGarbageRatio >= 0 {
		_, _ = ss.compactShard(i, 0, true)
	}
	if err := vl.Admit(need); err != nil {
		return spaceErr(i, err)
	}
	return nil
}

// appendNeed projects the value-log payload a plain write of op appends on
// shard i, or -1 when it needs no admission: fixed-width writes append
// nothing, and a delete's rewrite only shrinks a bucket. A byte-key put
// rewrites its prefix's bucket, projected as the current image (an advisory
// read of the tree word — a Ref carries its record's length) plus the new
// entry; a projection past the record bound is left to the rewrite itself,
// which refuses with ErrBucketOverflow or finds the bucket smaller.
func (ss *Session) appendNeed(i int, op txnOp) int {
	switch op.kind {
	case opPutBytes:
		return len(op.bval)
	case txnOpPutKV:
		need := kvEntryHdr + len(op.bkey) + len(op.bval)
		if ref, ok := ss.s.shards[i].ix.Get(ss.ths[i], PackPrefix(op.bkey)); ok {
			need += vlog.Ref(ref).Len()
		}
		if need <= maxBucket {
			return need
		}
	}
	return -1
}

// retireWord is the single funnel for garbage accounting: every operation
// that displaces a tree word that may name a value-log record hands it
// here, and the value log decides — by validating the word against the
// record it would name — whether it was a varlen reference whose bytes
// just became garbage. Fixed-width values fail the validation and change
// nothing, which is what makes Delete on never-varlen keys account
// consistently (nothing to reclaim, nothing counted). A u64 write on a
// shard whose records bit is clear (shardGC.records) displaces a word
// that names no record, and neither reads it nor hands it here.
func (ss *Session) retireWord(i int, key uint64, old uint64) bool {
	return ss.s.shards[i].vl.MarkStale(ss.ths[i], key, vlog.Ref(old))
}

// PutBytes stores val as a byte-string value under key, replacing any
// existing value (fixed or varlen). The value is durable when PutBytes
// returns; a crash mid-call can only lose the whole update, never expose
// a torn or partial value. An overwrite retires the old record's bytes to
// the shard's garbage accounting and may run an automatic GC pass (see
// Options.GCGarbageRatio). On a closed store it returns ErrClosed; when the
// shard cannot guarantee log space with GC headroom intact it fails fast
// with ErrNoSpace (see admit).
func (ss *Session) PutBytes(key uint64, val []byte) error {
	_, err := ss.mutate(txnOp{kind: opPutBytes, key: key, bval: val})
	return err
}

// resolve returns the value-log payload shard i's tree names under key,
// appended to dst, and the tree word it resolved — the one retry loop
// behind every read of a log record (GetBytes, GetKV, ScanBytes, ScanKV, a
// commit's bucket projection, a bucket rewrite). With haveWord the first
// attempt uses word, a snapshot the caller collected earlier (a scan page);
// otherwise the word is read from the tree. notFamily is the sentinel a
// word that names no record of the caller's key family is reported as.
//
// The resolution runs inside a grace section on the shard thread, which
// pins every record the tree currently names: GC cannot complete its
// pre-free fence while the section is open (sections nest, so a writer
// holding one across its install calls this freely).
//
// One subtlety forces the retry loop: the tree's lock-free read protocol
// lets a reader racing a Delete observe the pre-delete value word (the
// tree's own section keeps the deleted key's box from being recycled under
// the read, so the word is what the key last held — but the log record it
// names stopped being referenced the moment the delete committed, and a GC
// pass already past its final fence may have reclaimed it, our section
// notwithstanding: a section opened after a fence began only protects
// records the tree still names). A snapshot word is weaker still: GC may
// have relocated and freed its record before the section opened.
// Such a dangling ref fails the record validation (owner key, header,
// checksum); re-reading the tree then either shows the key gone (the
// delete won — report absent), or a fresh word from a racing re-insert or a
// relocation (resolve that instead). Only a word that was read from the
// tree inside the section, fails validation AND re-reads unchanged is a
// genuine classification: a word of another key family (notFamily) or real
// corruption.
func (ss *Session) resolve(i int, key, word uint64, haveWord bool, dst []byte, notFamily error) (out []byte, cur uint64, ok bool, err error) {
	sh := &ss.s.shards[i]
	th := ss.ths[i]
	th.Enter()
	defer th.Exit()
	cur, ok = word, true
	if !haveWord {
		cur, ok = sh.ix.Get(th, key)
	}
	for fromTree := !haveWord; ok; fromTree = true {
		ss.recordReads++
		out, err = sh.vl.ReadKeyed(th, key, vlog.Ref(cur), dst)
		if err == nil {
			return out, cur, true, nil
		}
		again, still := sh.ix.Get(th, key)
		if fromTree && still && again == cur {
			return dst, cur, false, wrapReadErr(notFamily, key, err)
		}
		cur, ok = again, still
	}
	return dst, 0, false, nil
}

// GetBytes returns the byte-string value stored under key, appended to dst
// (pass nil, or a recycled buffer, to control allocation). The middle
// return reports presence. A key written through the fixed-width Put API
// fails with ErrNotVarlen. On a closed store it returns ErrClosed.
//
// The ref load and the record read happen inside one grace section, so a
// concurrent GC pass cannot free a record the tree names mid-read (see
// resolve and gc.go).
func (ss *Session) GetBytes(key uint64, dst []byte) ([]byte, bool, error) {
	t0, err := ss.gate(false)
	if err != nil {
		return dst, false, err
	}
	defer ss.doneReading(opGetBytes, t0, ss.recordReads)
	out, _, ok, err := ss.resolve(ss.s.ShardFor(key), key, 0, false, dst, ErrNotVarlen)
	return out, ok, err
}

// ScanBytes visits varlen pairs with lo <= key <= hi in ascending global
// key order, resolving each tree Ref to its value bytes and calling fn
// until it returns false or max pairs (max <= 0 means no bound beyond the
// ScanLimit page cap) have been visited. The val slice is owned by the
// session and valid only during the callback — copy it to keep it.
//
// Like ScanLimit, which it pages on, the per-shard collection is
// read-uncommitted and bounded: at most max pairs are returned per call,
// so callers paginate with lo = lastKey+1. A fixed-width key inside the
// range aborts the scan with ErrNotVarlen: keep fixed and varlen keys in
// disjoint ranges if both share a store. Pairs whose key is concurrently
// deleted mid-resolution are skipped; a pair relocated by a concurrent GC
// pass is transparently re-resolved (a collected word is a snapshot; each
// pair resolves in its own grace section — see resolve). On a closed store
// it returns ErrClosed.
func (ss *Session) ScanBytes(lo, hi uint64, max int, fn func(key uint64, val []byte) bool) error {
	if max <= 0 || max > maxScanPage {
		max = maxScanPage
	}
	t0, err := ss.gate(false)
	if err != nil {
		return err
	}
	defer ss.doneReading(opScanBytes, t0, ss.recordReads)
	pairs := ss.collectLimit(lo, hi, max)
	for j, kv := range pairs {
		ss.prefetchScan(pairs, j, -1)
		val, _, ok, err := ss.resolve(ss.s.ShardFor(kv.Key), kv.Key, kv.Val, true, ss.valBuf[:0], ErrNotVarlen)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		ss.valBuf = val
		if !fn(kv.Key, val) {
			return nil
		}
	}
	return nil
}

// prefetchAhead is how many records ahead of the one it resolves a scan
// prefetches: far enough that a record's lines arrive before its read,
// near enough that the lines in flight (a 256-byte value's record spans
// 5) fit the host's fill buffers. BenchmarkScanKV reads alike from 2 to 8
// ahead on a 2-core x86 host, and ≈ 20 % slower with no prefetch.
const prefetchAhead = 4

// prefetchScan hints the value-log records a scan resolves after kvs[j]:
// at j == 0 the first prefetchAhead+1 of them, later the one prefetchAhead
// ahead, so each record is hinted prefetchAhead resolutions before its own.
// shard is the shard every word of kvs came from, or -1 when each pair
// lives on its key's shard.
func (ss *Session) prefetchScan(kvs []KV, j, shard int) {
	from, to := j+prefetchAhead, j+prefetchAhead+1
	if j == 0 {
		from = 0
	}
	for _, kv := range kvs[min(from, len(kvs)):min(to, len(kvs))] {
		i := shard
		if i < 0 {
			i = ss.s.ShardFor(kv.Key)
		}
		ss.s.shards[i].vl.Prefetch(ss.ths[i], vlog.Ref(kv.Val))
	}
}

// maxScanPage bounds one ScanBytes page when the caller passes no max.
const maxScanPage = 65536
