package store

import (
	"errors"
	"fmt"
	"time"

	"repro/index"
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
// record is fully durable before its Ref exists anywhere (the log tail
// publish is ordered after the record flush, and the tree insert of the
// Ref starts only after Append returns), and the tree insert is the
// paper's single atomic 8-byte store. A crash mid-PutBytes therefore
// leaves either no trace (record unreachable, truncated by Reopen) or a
// leaked-but-intact record (tail published, tree insert lost) — never a
// torn value behind a live key.
//
// Overwriting or deleting a varlen key turns the old record into garbage;
// the displaced tree word is fed to the shard's accounting (every path
// that displaces a word — Put, PutBytes, PutBatch, Delete, DeleteBytes —
// goes through retireWord, the one place stale bytes are counted), and
// value-log GC reclaims the space (Options.GCGarbageRatio,
// Session.CompactValues; see gc.go for the full reclamation argument).
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

// wrapReadErr classifies a vlog read failure: checksum failures are
// corruption, everything else (bad offset, header/key/ref disagreement) is
// a fixed-width key read through the varlen API.
func wrapReadErr(key uint64, err error) error {
	if errors.Is(err, vlog.ErrCorrupt) {
		return fmt.Errorf("%w (key %d): %v", ErrValueCorrupt, key, err)
	}
	return fmt.Errorf("%w (key %d): %v", ErrNotVarlen, key, err)
}

// retireWord is the single funnel for garbage accounting: every operation
// that displaces a tree word hands it here, and the value log decides —
// by validating the word against the record it would name — whether it
// was a varlen reference whose bytes just became garbage. Fixed-width
// values fail the validation and change nothing, which is what makes
// Delete/DeleteBytes on never-varlen keys account consistently (nothing
// to reclaim, nothing counted).
func (ss *Session) retireWord(i int, key uint64, old uint64) bool {
	return ss.s.shards[i].vl.MarkStale(ss.ths[i], key, vlog.Ref(old))
}

// PutBytes stores val as a byte-string value under key, replacing any
// existing value (fixed or varlen). The value is durable when PutBytes
// returns; a crash mid-call can only lose the whole update, never expose
// a torn or partial value. An overwrite retires the old record's bytes to
// the shard's garbage accounting and may run an automatic GC pass (see
// Options.GCGarbageRatio). On a closed store it returns ErrClosed.
//
// The append and the tree install happen inside one grace section on the
// shard thread: a GC fence must not complete while a record exists whose ref
// is still on its way into the tree, or the pass could judge that record
// dead, free its extent, and let the install land on recycled memory (see
// gc.go). A section excludes nobody — writers never wait on each other here.
//
// Space admission runs first, outside the section: when the shard's pool can
// no longer hold the append plus an extent of GC headroom, PutBytes tries
// one inline compaction pass and, if that does not clear the shortfall,
// fails fast with ErrNoSpace — before the log is grown into the last free
// bytes GC would need to stage relocations. Reads, deletes, and GC are
// unaffected, and the condition clears once compaction frees extents.
func (ss *Session) PutBytes(key uint64, val []byte) error {
	if len(val) > MaxValue {
		return fmt.Errorf("%w: %d > %d bytes", ErrValueTooLarge, len(val), MaxValue)
	}
	if !ss.s.acquire() {
		return ErrClosed
	}
	if err := ss.s.writable(); err != nil {
		ss.s.release()
		return err
	}
	if ss.sampleOp() {
		defer ss.s.met.putBytes.RecordSince(time.Now())
	}
	i := ss.s.ShardFor(key)
	sh := &ss.s.shards[i]
	if sh.vl.Admit(len(val)) != nil {
		// Best-effort reclamation before refusing: a full pass (wait=true
		// queues behind any running one, so its frees count too), then one
		// re-check. The slow path is paid only by writers already out of
		// space — and only when automatic compaction is enabled; with
		// GCGarbageRatio < 0 the operator asked for manual-only GC, so
		// admission refuses immediately and CompactValues is the way out.
		if ss.s.opts.GCGarbageRatio >= 0 {
			_, _ = ss.compactShard(i, 0, true)
		}
		if aerr := sh.vl.Admit(len(val)); aerr != nil {
			ss.s.release()
			return fmt.Errorf("%w: shard %d: %v", ErrNoSpace, i, aerr)
		}
	}
	sh.gc.applyMu.RLock()
	th := ss.ths[i]
	th.Enter()
	ref, err := sh.vl.Append(th, key, val)
	if err != nil {
		th.Exit()
		sh.gc.applyMu.RUnlock()
		ss.s.release()
		if errors.Is(err, vlog.ErrFull) {
			// Admission raced another writer into the last extent; the
			// hard failure is the same condition.
			return fmt.Errorf("%w: shard %d: %v", ErrNoSpace, i, err)
		}
		return fmt.Errorf("store: shard %d value log: %w", i, err)
	}
	old, existed, err := index.Exchange(sh.ix, th, key, uint64(ref))
	if err != nil {
		// The appended record is leaked until GC finds it dead; the
		// operation itself failed cleanly.
		th.Exit()
		sh.gc.applyMu.RUnlock()
		ss.s.release()
		return err
	}
	stale := existed && ss.retireWord(i, key, old)
	th.Exit()
	sh.gc.applyMu.RUnlock()
	ss.s.release()
	if stale {
		ss.maybeGC(i)
	}
	return nil
}

// readCurrent resolves key's current value through the tree. The caller
// must be inside a grace section on the shard thread (ss.ths[i].Enter),
// which pins every record the tree currently names: GC cannot complete its
// pre-free fence while the section is open.
//
// One subtlety forces the retry loop: the tree's lock-free read protocol
// lets a reader racing a Delete observe the pre-delete value word (the
// tree's own section keeps the deleted key's box from being recycled under
// the read, so the word is what the key last held — but the log record it
// names stopped being referenced the moment the delete committed, and a GC
// pass already past its final fence may have reclaimed it, our section
// notwithstanding: a section opened after a fence began only protects
// records the tree still names).
// Such a dangling ref fails the record validation (owner key, header,
// checksum); re-reading the tree then either shows the key gone (the
// delete won — report absent), or a fresh word from a racing re-insert
// (resolve that instead). Only a word that fails validation AND re-reads
// unchanged is a genuine classification: a fixed-width value (ErrNotVarlen)
// or real corruption.
func (ss *Session) readCurrent(i int, key uint64, dst []byte) ([]byte, bool, error) {
	sh := &ss.s.shards[i]
	ref, ok := sh.ix.Get(ss.ths[i], key)
	for {
		if !ok {
			return dst, false, nil
		}
		out, err := sh.vl.ReadKeyed(ss.ths[i], key, vlog.Ref(ref), dst)
		if err == nil {
			return out, true, nil
		}
		ref2, ok2 := sh.ix.Get(ss.ths[i], key)
		if ok2 && ref2 == ref {
			return dst, false, wrapReadErr(key, err)
		}
		ref, ok = ref2, ok2
	}
}

// GetBytes returns the byte-string value stored under key, appended to dst
// (pass nil, or a recycled buffer, to control allocation). The middle
// return reports presence. A key written through the fixed-width Put API
// fails with ErrNotVarlen. On a closed store it returns ErrClosed.
//
// The ref load and the record read happen inside one grace section, so a
// concurrent GC pass cannot free a record the tree names mid-read (see
// gc.go).
func (ss *Session) GetBytes(key uint64, dst []byte) ([]byte, bool, error) {
	if !ss.s.acquire() {
		return dst, false, ErrClosed
	}
	defer ss.s.release()
	if ss.sampleOp() {
		defer ss.s.met.getBytes.RecordSince(time.Now())
	}
	i := ss.s.ShardFor(key)
	ss.ths[i].Enter()
	defer ss.ths[i].Exit()
	return ss.readCurrent(i, key, dst)
}

// DeleteBytes removes a varlen key, reporting whether it was present. The
// tree entry disappears atomically; the value's log record is retired to
// the garbage accounting and reclaimed by GC. It is Delete with a name
// that documents the varlen discipline — the two are interchangeable for
// removal, and a delete of a never-varlen (fixed-width) key feeds nothing
// to the reclaim stats through the same retireWord funnel.
func (ss *Session) DeleteBytes(key uint64) (bool, error) {
	return ss.Delete(key)
}

// resolveScanRef resolves one collected (key, word) pair to value bytes
// inside a grace section on the shard thread. A collected ref is a snapshot:
// GC may have relocated and freed the record since ScanLimit read the
// tree, so on validation failure the authoritative ref is re-read from the
// tree inside the same section — GC cannot free what the tree names while
// it is open — and a key deleted in the meantime is skipped.
func (ss *Session) resolveScanRef(kv KV) (val []byte, skip bool, err error) {
	i := ss.s.ShardFor(kv.Key)
	sh := &ss.s.shards[i]
	ss.ths[i].Enter()
	defer ss.ths[i].Exit()
	buf, err := sh.vl.ReadKeyed(ss.ths[i], kv.Key, vlog.Ref(kv.Val), ss.valBuf[:0])
	if err != nil {
		var ok bool
		buf, ok, err = ss.readCurrent(i, kv.Key, ss.valBuf[:0])
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, true, nil
		}
	}
	ss.valBuf = buf
	return buf, false, nil
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
// pass is transparently re-resolved. On a closed store it returns
// ErrClosed.
func (ss *Session) ScanBytes(lo, hi uint64, max int, fn func(key uint64, val []byte) bool) error {
	if max <= 0 || max > maxScanPage {
		max = maxScanPage
	}
	if !ss.s.acquire() {
		return ErrClosed
	}
	defer ss.s.release()
	if ss.sampleOp() {
		defer ss.s.met.scanBytes.RecordSince(time.Now())
	}
	kvs, err := ss.ScanLimit(lo, hi, max)
	if err != nil {
		return err
	}
	for _, kv := range kvs {
		val, skip, err := ss.resolveScanRef(kv)
		if err != nil {
			return err
		}
		if skip {
			continue
		}
		if !fn(kv.Key, val) {
			return nil
		}
	}
	return nil
}

// maxScanPage bounds one ScanBytes page when the caller passes no max.
const maxScanPage = 65536
