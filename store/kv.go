package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/vlog"
)

// The byte-string key API. The FAST+FAIR slot stays one 8-byte word — the
// paper's whole endurable-transient-inconsistency argument rests on every
// in-node write being a single failure-atomic store — so variable-length
// keys cannot live in the node. Instead the tree orders an 8-byte *prefix*
// of the key (big-endian, zero-padded; see PackPrefix) and the full key
// bytes live in the shard's value log, exactly where varlen values already
// live: each occupied prefix owns one keyed log record (its "bucket") whose
// payload is the sorted list of every (full key, value) pair in this shard
// sharing that prefix. Prefix ties — distinct keys with equal first 8
// bytes — therefore resolve by comparing full key bytes through the log,
// inside the same grace section every varlen resolution opens (gc.go).
//
// PackPrefix is order-consistent with lexicographic byte order:
// prefix(x) < prefix(y) implies x < y, so the tree's prefix order IS the
// key order up to ties, and ties are confined to a single bucket. Scans
// walk the tree by prefix and merge bucket entries by full key.
//
// Crash atomicity is PutBytes' argument verbatim, because a bucket is an
// ordinary keyed record: the new bucket image (old entries plus the upsert)
// is fully durable — published by its own record flush — before its Ref
// exists anywhere, and the tree install of that Ref is one atomic 8-byte
// store. A crash mid-PutKV leaves either the old bucket (new record
// unreachable: leaked until GC, or torn and passed over by Reopen) or the
// new one — never a torn key or value behind a live prefix. Both byte-key writes are
// one loop (rewriteBucket), whether a plain write or a transaction's apply
// runs it. GC relocation and Reopen's accounting rebuild need no new code:
// every live bucket is named directly by a tree word, which is all their
// Live/Swap callbacks and IsRecord walks assume.
//
// Buckets and the uint64 APIs share each shard's tree and log, so the
// prefix keyspace must be disjoint from any fixed/varlen uint64 keys: a
// bucket read of a word written by Put/PutBytes fails record or bucket
// validation and reports ErrNotKeyed (the byte-key analogue of
// ErrNotVarlen). Keep the two key universes apart per store.

const (
	// MaxKey is the largest key PutKV accepts, equal to wire.MaxKey
	// (asserted by a server test) so every stored key travels the
	// protocol.
	MaxKey = 1024
	// MaxKVValue is the largest value PutKV accepts. It is MaxValue less
	// the key headroom: a ScanKV response frame must fit one entry's key,
	// value, and per-entry header inside wire.MaxFrame.
	MaxKVValue = 1<<20 - 2048
	// maxBucket bounds one bucket's encoded payload (vlog.MaxValue). At
	// least ~15 max-sized colliding entries fit; random keys collide in a
	// 64-bit prefix space essentially never, so hitting this means an
	// adversarial workload aimed entire namespaces at one 8-byte prefix.
	maxBucket = vlog.MaxValue
	// kvEntryHdr is the per-entry header inside a bucket: klen u16,
	// vlen u32, little-endian.
	kvEntryHdr = 6
)

// Errors of the byte-key API.
var (
	// ErrKeyEmpty reports a zero-length key; the empty key is not a value
	// in the keyspace (scan bounds may still be empty, meaning unbounded).
	ErrKeyEmpty = errors.New("store: empty key")
	// ErrKeyTooLarge reports a key above MaxKey bytes.
	ErrKeyTooLarge = errors.New("store: key exceeds MaxKey")
	// ErrNotKeyed reports a byte-key operation that resolved a tree word
	// not holding a KV bucket — a prefix colliding with a key written
	// through the fixed-width or varlen uint64 APIs.
	ErrNotKeyed = errors.New("store: prefix does not hold a byte-key bucket")
	// ErrBucketOverflow reports a PutKV refused because the rewritten
	// prefix bucket would exceed the value log's record bound — only
	// reachable by deliberately aiming many large entries at one 8-byte
	// prefix.
	ErrBucketOverflow = errors.New("store: prefix bucket exceeds record bound")
)

// PackPrefix returns the tree key ordering a byte-string key: the first 8
// bytes big-endian, zero-padded on the right for shorter keys. Big-endian
// packing makes uint64 comparison agree with lexicographic byte comparison
// on the prefix, and zero-padding keeps short keys below their extensions
// ("a" packs below "a\x00", and resolves before it inside the shared
// bucket). The map is monotone — PackPrefix(x) < PackPrefix(y) implies
// x < y — so the tree's prefix order never contradicts the key order;
// distinct keys with equal prefixes land in one bucket and resolve by full
// bytes.
func PackPrefix(key []byte) uint64 {
	var p uint64
	n := len(key)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

// ShardForKey returns the shard a byte-string key hashes to: FNV-1a over
// the full key bytes, finalized by the same splitmix64 mixer the uint64
// path uses. Hashing the full key (not the prefix) keeps partitions
// balanced even when a workload shares long common prefixes; keys with
// equal prefixes may land in different shards, each holding its own
// independent bucket for that prefix, and scans merge by full key.
func (s *Store) ShardForKey(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(mix(h) % uint64(len(s.shards)))
}

func checkKey(key []byte) error {
	if len(key) == 0 {
		return ErrKeyEmpty
	}
	if len(key) > MaxKey {
		return fmt.Errorf("%w: %d > %d bytes", ErrKeyTooLarge, len(key), MaxKey)
	}
	return nil
}

// errBadBucket is the internal parse failure; public paths wrap it in
// ErrNotKeyed because a payload that fails bucket validation was not
// written by this API.
var errBadBucket = errors.New("malformed bucket payload")

// appendKVEntry appends one encoded bucket entry to dst.
func appendKVEntry(dst, key, val []byte) []byte {
	var h [kvEntryHdr]byte
	binary.LittleEndian.PutUint16(h[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(h[2:6], uint32(len(val)))
	dst = append(dst, h[:]...)
	dst = append(dst, key...)
	return append(dst, val...)
}

// parseBucket walks a bucket payload, calling visit for each entry in key
// order until visit returns false. Validation is fail-closed: the payload
// must consume exactly, every key must be non-empty, within MaxKey, carry
// this bucket's prefix, and sort strictly above its predecessor — anything
// else is errBadBucket, never a partial parse. The k/v slices alias b.
func parseBucket(prefix uint64, b []byte, visit func(k, v []byte) bool) error {
	var prev []byte
	for off := 0; off < len(b); {
		if len(b)-off < kvEntryHdr {
			return errBadBucket
		}
		kl := int(binary.LittleEndian.Uint16(b[off:]))
		vl := int(binary.LittleEndian.Uint32(b[off+2:]))
		off += kvEntryHdr
		if kl < 1 || kl > MaxKey || vl > MaxKVValue || kl+vl > len(b)-off {
			return errBadBucket
		}
		k := b[off : off+kl]
		v := b[off+kl : off+kl+vl : off+kl+vl]
		off += kl + vl
		if PackPrefix(k) != prefix {
			return errBadBucket
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			return errBadBucket
		}
		prev = k
		if !visit(k, v) {
			return nil
		}
	}
	return nil
}

// bucketUpsert rebuilds bucket with (key, val) inserted or replaced,
// appending the new image to dst. It reports whether an existing entry was
// replaced.
func bucketUpsert(dst, bucket []byte, prefix uint64, key, val []byte) (out []byte, replaced bool, err error) {
	done := false
	err = parseBucket(prefix, bucket, func(k, v []byte) bool {
		c := bytes.Compare(k, key)
		if c < 0 {
			dst = appendKVEntry(dst, k, v)
			return true
		}
		if !done {
			dst = appendKVEntry(dst, key, val)
			done = true
			if c == 0 {
				replaced = true
				return true
			}
		}
		dst = appendKVEntry(dst, k, v)
		return true
	})
	if err != nil {
		return nil, false, err
	}
	if !done {
		dst = appendKVEntry(dst, key, val)
	}
	return dst, replaced, nil
}

// bucketRemove rebuilds bucket without key, appending the new image to dst
// and reporting whether the key was present.
func bucketRemove(dst, bucket []byte, prefix uint64, key []byte) (out []byte, removed bool, err error) {
	err = parseBucket(prefix, bucket, func(k, v []byte) bool {
		if bytes.Equal(k, key) {
			removed = true
			return true
		}
		dst = appendKVEntry(dst, k, v)
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return dst, removed, nil
}

// bucketGet appends key's value to dst, reporting presence. Entries are
// sorted, so the walk stops at the first key past the target.
func bucketGet(bucket []byte, prefix uint64, key, dst []byte) (out []byte, found bool, err error) {
	out = dst
	err = parseBucket(prefix, bucket, func(k, v []byte) bool {
		c := bytes.Compare(k, key)
		if c == 0 {
			out = append(out, v...)
			found = true
		}
		return c < 0
	})
	if err != nil {
		return dst, false, err
	}
	return out, found, nil
}

// PutKV stores val under a byte-string key of 1..MaxKey bytes, replacing
// any existing value. Durability and crash atomicity match PutBytes: the
// rewritten bucket record is fully durable before the tree install, and
// the install is one atomic 8-byte store (see the package comment above).
// Byte-key writers to one prefix on one shard serialize on its key stripe —
// the bucket rewrite is a read-modify-write — while readers, other
// stripes, and other shards proceed concurrently. On a closed store it
// returns ErrClosed; when the shard cannot guarantee log space with GC
// headroom intact it fails fast with ErrNoSpace.
func (ss *Session) PutKV(key, val []byte) error {
	_, err := ss.mutate(txnOp{kind: txnOpPutKV, bkey: key, bval: val})
	return err
}

// DeleteKV removes a byte-string key, reporting whether it was present.
// Removing the last key of a prefix removes the tree entry; otherwise the
// bucket is rewritten without the entry — which appends, so a delete can
// (rarely) fail with ErrNoSpace on a log with no headroom, same as an
// overwrite. The displaced bucket record retires through the standard
// accounting funnel and may trigger automatic GC.
func (ss *Session) DeleteKV(key []byte) (bool, error) {
	return ss.mutate(txnOp{kind: txnOpDelKV, bkey: key})
}

// rewriteBucket is the one read-modify-write loop behind both byte-key
// writes: read prefix's current bucket on shard i, apply edit to it (a
// txnOpPutKV upserts its entry, a txnOpDelKV removes it), append the new
// image, install it over the old word — Exchange on a vacant prefix,
// ReplaceIf over the word that was read, Remove when the last entry goes.
// It retries around concurrent GC relocations and takes no lock itself: the
// caller holds the prefix's stripe exclusively (applyShared for a plain
// write, Txn.Commit for a transaction's apply), which serialises every
// writer of the bucket, or is the only mutator (recovery replay). It
// reports whether edit's key existed and whether a displaced record turned
// stale (the caller runs maybeGC once its locks are down).
func (ss *Session) rewriteBucket(i int, prefix uint64, edit txnOp) (existed, stale bool, err error) {
	for done := false; !done && err == nil; {
		existed, stale, done, err = ss.tryRewrite(i, prefix, edit)
	}
	return existed, stale, err
}

// tryRewrite is one attempt of rewriteBucket, inside one grace section on
// the shard thread from the bucket read to the install: the appended image
// is invisible to GC's liveness until its ref lands in the tree (the
// PutBytes argument, see Session.apply). done=false with a nil error means
// a GC relocation moved the word between the read and the install — retry
// against the fresh one.
func (ss *Session) tryRewrite(i int, prefix uint64, edit txnOp) (existed, stale, done bool, err error) {
	sh := &ss.s.shards[i]
	th := ss.ths[i]
	th.Enter()
	defer th.Exit()
	bucket, ref, ok, err := ss.resolve(i, prefix, 0, false, ss.kvBuf[:0], ErrNotKeyed)
	if err != nil {
		return false, false, true, err
	}
	ss.kvBuf = bucket // empty when the prefix is vacant
	var newb []byte
	switch {
	case edit.kind == txnOpPutKV:
		newb, existed, err = bucketUpsert(ss.kvNew[:0], bucket, prefix, edit.bkey, edit.bval)
	case ok:
		newb, existed, err = bucketRemove(ss.kvNew[:0], bucket, prefix, edit.bkey)
	}
	if err != nil {
		return false, false, true, wrapReadErr(ErrNotKeyed, prefix, err)
	}
	if !existed && edit.kind == txnOpDelKV {
		return false, false, true, nil // nothing to remove, nothing written
	}
	ss.kvNew = newb
	if len(newb) == 0 {
		// Last entry: drop the prefix. Between our read and the Remove only
		// GC can have moved the word (same content), so whatever Remove
		// displaces is this bucket's live record.
		old, was := sh.ix.Remove(th, prefix)
		return true, was && ss.retireWord(i, prefix, old), true, nil
	}
	if len(newb) > maxBucket {
		return false, false, true, fmt.Errorf("%w: prefix %#x at %d bytes", ErrBucketOverflow, prefix, len(newb))
	}
	newRef, aerr := sh.vl.Append(th, prefix, newb)
	if aerr != nil {
		return false, false, true, spaceErr(i, aerr)
	}
	if !ok {
		// Vacant prefix. Every writer of the word holds its stripe, so none
		// raced a word in since the read; Exchange would retire one like
		// any other overwrite.
		old, was, xerr := sh.ix.Exchange(th, prefix, uint64(newRef))
		return existed, xerr == nil && was && ss.retireWord(i, prefix, old), true, xerr
	}
	if !sh.ix.ReplaceIf(th, prefix, ref, uint64(newRef)) {
		// A GC pass relocated the bucket between our read and the install:
		// the new record targets a superseded image. Retire it and rebuild
		// against the fresh word. (Only GC moves the word — byte-key
		// writers hold the prefix's stripe exclusively.)
		ss.retireWord(i, prefix, uint64(newRef))
		return false, false, false, nil
	}
	return existed, ss.retireWord(i, prefix, ref), true, nil
}

// GetKV returns the value stored under a byte-string key, appended to dst
// (pass nil, or a recycled buffer, to control allocation). The middle
// return reports presence. A prefix written through a uint64 API fails
// with ErrNotKeyed. On a closed store it returns ErrClosed.
func (ss *Session) GetKV(key, dst []byte) ([]byte, bool, error) {
	if err := checkKey(key); err != nil {
		return dst, false, err
	}
	t0, err := ss.gate(false)
	if err != nil {
		return dst, false, err
	}
	defer ss.doneReading(opGetKV, t0, ss.recordReads)
	p := PackPrefix(key)
	b, _, ok, err := ss.resolve(ss.s.ShardForKey(key), p, 0, false, ss.kvBuf[:0], ErrNotKeyed)
	if err != nil || !ok {
		return dst, false, err
	}
	ss.kvBuf = b
	out, found, perr := bucketGet(b, p, key, dst)
	if perr != nil {
		return dst, false, wrapReadErr(ErrNotKeyed, p, perr)
	}
	return out, found, nil
}

// kvSpan locates one collected entry inside a shard run's arena:
// key = arena[ko:vo], val = arena[vo:ve].
type kvSpan struct{ ko, vo, ve int }

// kvRun is one shard's collected, filtered, key-ordered entry run.
type kvRun struct {
	arena []byte
	spans []kvSpan
	cur   int
}

// kvScanRetainBytes bounds the arena bytes a session keeps cached per
// shard run between ScanKV calls: one full kvBucketPage of buckets holding
// one 256-byte pair each (≈ 143 KiB) with append's growth headroom, so a
// page-sized scan reuses its arena and one far larger gives it back.
// kvScanRetainSpans bounds the cached span slots.
const (
	kvScanRetainBytes = 256 << 10
	kvScanRetainSpans = 4096
)

// kvBucketPage is the tree-scan page while collecting bucket refs: refs
// are collected in pages, then resolved one grace section each, so a huge
// prefix range never holds reclamation up across a full walk.
const kvBucketPage = 512

// collectKVRun fills shard i's run with up to max entries in [lo, hi]
// (nil/empty hi = unbounded), starting at tree prefix plo.
func (ss *Session) collectKVRun(i int, run *kvRun, lo, hi []byte, plo, phi uint64, max int) error {
	sh := &ss.s.shards[i]
	th := ss.ths[i]
	next := plo
	for len(run.spans) < max {
		ss.kvRefs = ss.kvRefs[:0]
		sh.ix.Scan(th, next, phi, func(k, v uint64) bool {
			ss.kvRefs = append(ss.kvRefs, KV{k, v})
			return len(ss.kvRefs) < kvBucketPage
		})
		if len(ss.kvRefs) == 0 {
			return nil
		}
		for j, kv := range ss.kvRefs {
			ss.prefetchScan(ss.kvRefs, j, i)
			if err := ss.collectBucket(i, kv.Key, kv.Val, run, lo, hi); err != nil {
				return err
			}
		}
		if len(ss.kvRefs) < kvBucketPage {
			return nil
		}
		last := ss.kvRefs[len(ss.kvRefs)-1].Key
		if last == ^uint64(0) {
			return nil
		}
		next = last + 1
	}
	return nil
}

// collectBucket resolves one collected (prefix, word) pair — a snapshot,
// so a concurrent GC relocation or delete transparently re-resolves through
// the tree (see resolve) and a prefix deleted mid-scan is skipped — and
// appends its in-range entries to run.
func (ss *Session) collectBucket(i int, prefix, word uint64, run *kvRun, lo, hi []byte) error {
	b, _, ok, err := ss.resolve(i, prefix, word, true, ss.kvBuf[:0], ErrNotKeyed)
	if err != nil || !ok {
		return err
	}
	ss.kvBuf = b
	perr := parseBucket(prefix, b, func(k, v []byte) bool {
		if len(lo) > 0 && bytes.Compare(k, lo) < 0 {
			return true
		}
		if len(hi) > 0 && bytes.Compare(k, hi) > 0 {
			return false // sorted: everything after is out of range too
		}
		ko := len(run.arena)
		run.arena = append(run.arena, k...)
		vo := len(run.arena)
		run.arena = append(run.arena, v...)
		run.spans = append(run.spans, kvSpan{ko, vo, len(run.arena)})
		return true
	})
	if perr != nil {
		return wrapReadErr(ErrNotKeyed, prefix, perr)
	}
	return nil
}

// ScanKV visits byte-key pairs with lo <= key <= hi in ascending full-key
// order, calling fn until it returns false or max pairs (max <= 0, or
// above the page cap, means one maxScanPage page) have been visited. A nil
// or empty lo starts at the smallest key; a nil or empty hi is unbounded
// above. Bounds may be up to MaxKey+1 bytes so a caller can paginate with
// lo = lastKey + "\x00" (the immediate successor). Key and value slices
// are session-owned and valid only during the callback.
//
// Like ScanLimit, the collection is bounded and read-uncommitted: at most
// max pairs return per call and each shard contributes its smallest
// in-range entries, so the merged page is exactly the global first max.
// Entries resolve inside grace sections on each shard thread; concurrent
// GC relocation re-resolves transparently, concurrently deleted prefixes
// are skipped. A uint64-API key whose word lands in the prefix range
// aborts with ErrNotKeyed. On a closed store it returns ErrClosed.
func (ss *Session) ScanKV(lo, hi []byte, max int, fn func(key, val []byte) bool) error {
	if len(lo) > MaxKey+1 || len(hi) > MaxKey+1 {
		return fmt.Errorf("%w: scan bound exceeds %d bytes", ErrKeyTooLarge, MaxKey+1)
	}
	if len(hi) > 0 && len(lo) > 0 && bytes.Compare(lo, hi) > 0 {
		return nil
	}
	if max <= 0 || max > maxScanPage {
		max = maxScanPage
	}
	t0, err := ss.gate(false)
	if err != nil {
		return err
	}
	defer ss.doneReading(opScanKV, t0, ss.recordReads)
	n := len(ss.ths)
	if ss.kvRuns == nil {
		ss.kvRuns = make([]kvRun, n)
	}
	plo := uint64(0)
	if len(lo) > 0 {
		plo = PackPrefix(lo)
	}
	phi := ^uint64(0)
	if len(hi) > 0 {
		phi = PackPrefix(hi)
	}
	for i := range ss.kvRuns {
		run := &ss.kvRuns[i]
		run.arena = run.arena[:0]
		run.spans = run.spans[:0]
		run.cur = 0
		if err := ss.collectKVRun(i, run, lo, hi, plo, phi, max); err != nil {
			return err
		}
	}
	// Merge the key-ordered shard runs by repeated minimum, like
	// ScanLimit; shard counts are small.
	emitted := 0
	for emitted < max {
		best := -1
		var bestKey []byte
		for i := range ss.kvRuns {
			run := &ss.kvRuns[i]
			if run.cur >= len(run.spans) {
				continue
			}
			sp := run.spans[run.cur]
			k := run.arena[sp.ko:sp.vo]
			if best < 0 || bytes.Compare(k, bestKey) < 0 {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			break
		}
		run := &ss.kvRuns[best]
		sp := run.spans[run.cur]
		run.cur++
		emitted++
		if !fn(run.arena[sp.ko:sp.vo], run.arena[sp.vo:sp.ve]) {
			break
		}
	}
	for i := range ss.kvRuns {
		if cap(ss.kvRuns[i].arena) > kvScanRetainBytes {
			ss.kvRuns[i].arena = nil
		}
		if cap(ss.kvRuns[i].spans) > kvScanRetainSpans {
			ss.kvRuns[i].spans = nil
		}
	}
	return nil
}
