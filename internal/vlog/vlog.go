// Package vlog is a crash-consistent, append-only value log in simulated
// persistent memory: the indirection layer that gives the 8-byte FAST+FAIR
// tree variable-length values without touching its failure-atomicity
// argument. The tree keeps storing one uint64 per key; for byte-string
// values that word is a Ref — a packed (offset, length) pointer into this
// log — following the pointer-into-PM reading of values the paper itself
// uses (§3) and the log-structured value separation of WiscKey/Badger.
//
// # Persistence protocol (format version 3: publish by flush)
//
// Records are internal/plog records with one meta word, the owning key, and
// follow plog's one publish rule. Append stores the payload words, the key
// and the record header (length+1 and a CRC-32C of key+payload packed into
// one 8-byte word), then flushes the record's lines: one flush call, one
// fence. The record is published when that flush returns. There is no tail
// word: the append cursor is volatile. A crash mid-append leaves a record
// whose CRC fails, never a torn record that validates.
//
// # Recovery
//
// Open is a read-only walk: it issues no persistent store. It follows the
// extent chain and walks every extent's records, verifying each checksum.
// A sealed extent — every extent but the last — ends at the zero header
// word that growth writes and flushes before it links the next extent, so a
// record failing validation before that terminator is damage, and Open
// fails closed with ErrCorrupt. The last extent ends at the first record
// that fails validation (a torn append, or the terminator), and appends
// resume there. The walk may also accept bytes behind the last real record
// that happen to validate — a stale record in a recycled extent, or a
// record image inside a torn append — and it needs no generation word to
// make that safe: such a record is garbage no tree word names (see package
// plog), and accounting and GC already treat it as garbage.
//
// # Space and garbage collection
//
// Records live in a chain of fixed-size extents allocated from the pool on
// demand (oversized values get an extent of their own). Appends only ever
// touch the chain's last extent; overwriting or deleting a key in the layer
// above turns the old record into garbage that GC reclaims.
//
// Every record carries the key it was written under, so a compaction pass
// can ask the index layer whether the record is still live (the tree's
// word for that key still names this record). GC walks extents
// oldest-first — the chain head — copies live records to the tail with the
// ordinary failure-atomic append, asks the caller to swap the tree
// reference from the old location to the new (a conditional replace that
// refuses if the application overwrote the key mid-GC), and only then
// unlinks and frees the drained extent. The unlink is a single persisted
// 8-byte store of the chain-head pointer, ordered after the relocations by
// their own flushes, so a crash anywhere in the cycle leaves every live key
// naming exactly one intact copy: before the swap the old record is still
// linked and valid; after the swap the new copy was already durable
// (Append returned); after the unlink the old extent holds only dead
// records. The caller supplies a Fence callback, invoked once when the pass
// starts, to drain writers between an append and its tree install, and
// once per extent between the last swap and the free, to drain readers
// that may still hold a pre-swap reference snapshot (see GCFuncs).
//
// Live/garbage byte accounting is volatile and caller-assisted: Append
// counts the new record live, MarkStale moves the bytes of an overwritten
// or deleted record to the garbage side, and the caller reconstructs both
// counters after recovery (the log alone cannot know liveness).
package vlog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/plog"
	"repro/internal/pmem"
)

// MaxValue is the largest payload one record may carry, bounded by the
// Ref encoding (24 bits of length).
const MaxValue = 1<<24 - 1

// maxOffset bounds record offsets to the 40 bits a Ref reserves for them
// (1 TiB — far above any simulated pool).
const maxOffset = 1 << 40

// Errors returned by the log.
var (
	// ErrTooLarge reports an Append payload above MaxValue.
	ErrTooLarge = errors.New("vlog: value exceeds MaxValue")
	// ErrBadRef reports a Ref that does not name a published record: out
	// of bounds, misaligned, or with a header or key that disagrees with
	// the Ref. Fixed-width tree values read as refs fail with this.
	ErrBadRef = errors.New("vlog: ref does not name a valid record")
	// ErrCorrupt reports a record whose payload fails its checksum, or a
	// log image whose header or extent chain is unreadable.
	ErrCorrupt = errors.New("vlog: corrupt log")
	// ErrFull wraps pmem.ErrOutOfMemory when the pool cannot hold a new
	// extent.
	ErrFull = errors.New("vlog: pool exhausted")
	// ErrVersion reports a log image written in another format version.
	// There is no migration path: version 2 logs published records through
	// a persisted tail word this version neither reads nor maintains.
	ErrVersion = errors.New("vlog: unsupported log format version")
)

// Ref names one published record: the arena offset of its header word in
// the low 40 bits and the payload length in the high 24. The zero Ref is
// never valid (offset 0 is the pool's NULL).
type Ref uint64

// MakeRef packs an offset and length; exported for tests.
func MakeRef(off int64, n int) Ref { return Ref(uint64(off) | uint64(n)<<40) }

// Off returns the arena offset of the record header.
func (r Ref) Off() int64 { return int64(r & (maxOffset - 1)) }

// Len returns the payload length in bytes.
func (r Ref) Len() int { return int(uint64(r) >> 40) }

// Log header layout: one cache line anchored at a pool root slot.
//
//	word 0: magic | version
//	word 1: offset of the first extent (GC advances it as head extents
//	        are reclaimed)
//	word 2: configured extent size
//
// Extent layout: a 16-byte header then record space.
//
//	word 0: offset of the next extent (0 = end of chain)
//	word 1: offset one past the extent (its exclusive end)
//
// Record layout: a plog record whose one meta word is the key the record
// was written under — header, key, then the payload, padded to whole
// words. The checksum covers the key, so it ties the payload to its owner:
// a Ref forged for the wrong key fails validation even at a colliding
// offset. A zero header word terminates a sealed extent's records.
//
// The key word exists for GC: a compaction pass walking an extent must ask
// the index layer "does key K still point at this record?", which requires
// knowing K (the WiscKey arrangement — the log is the authority on which
// key owns a record).
const (
	logMagic = uint64(0x564c4f47) // "VLOG"
	// logVersion 2 published records through a tail word in the header
	// line; version 1 records carried no key word.
	logVersion = 3

	hdrMagicWord = 0
	hdrFirstWord = 1
	hdrExtWord   = 2
	hdrBytes     = pmem.LineSize

	extHdrBytes = 2 * pmem.WordSize

	// DefaultExtent is the extent size used when Options leave it zero.
	DefaultExtent = 1 << 20
)

// rec is the value log's record format: one meta word, the owner key.
var rec = plog.Format{Meta: 1}

// Log is a handle on one value log. Appends serialise on an internal
// (volatile) mutex; reads of published records are lock-free and may run
// concurrently with appends, because published records are immutable and
// appends only touch space beyond the tail. GC passes serialise on their
// own mutex and may run concurrently with appends and reads — the caller's
// Fence callback is the only reader/GC synchronisation point (see GCFuncs).
type Log struct {
	p      *pmem.Pool
	hdrOff int64

	mu      sync.Mutex
	tail    int64 // next append offset (volatile: records publish themselves)
	curExt  int64 // extent containing tail: the chain's last
	curEnd  int64 // curExt's exclusive end
	first   int64 // first extent in the chain (GC moves it forward)
	extSize int64

	// gcMu serialises GC passes, and Check against concurrent unlinks.
	gcMu sync.Mutex

	// Volatile space accounting, in payload bytes (see Stats). live and
	// garbage are caller-assisted: Append adds live, MarkStale moves
	// live→garbage, GC settles both when it relocates and frees;
	// ResetAccounting restores them after recovery.
	live      atomic.Int64
	garbage   atomic.Int64
	capBytes  atomic.Int64 // record space across allocated extents
	reclaimed atomic.Int64 // arena bytes returned to the pool by GC
	relocated atomic.Int64 // records copied forward by GC
	gcPasses  atomic.Int64 // extents reclaimed by GC
}

// Create initialises an empty log anchored at the given pool root slot and
// persists it. extSize is the growth unit in bytes (0 = DefaultExtent);
// oversized values allocate larger one-off extents.
func Create(p *pmem.Pool, th *pmem.Thread, slot int, extSize int64) (*Log, error) {
	if extSize <= 0 {
		extSize = DefaultExtent
	}
	extSize = plog.Lines(extSize)
	hdr, err := p.Alloc(hdrBytes, pmem.LineSize)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFull, err)
	}
	l := &Log{p: p, hdrOff: hdr, extSize: extSize}
	ext, err := l.allocExtent(th, extSize)
	if err != nil {
		return nil, err
	}
	l.first, l.curExt = ext, ext
	l.curEnd = ext + extSize
	l.tail = ext + extHdrBytes
	th.Store(hdr+hdrFirstWord*pmem.WordSize, uint64(ext))
	th.Store(hdr+hdrExtWord*pmem.WordSize, uint64(extSize))
	th.Store(hdr+hdrMagicWord*pmem.WordSize, logMagic<<32|logVersion)
	th.Flush(hdr, hdrBytes)
	p.SetRoot(th, slot, hdr)
	return l, nil
}

// Open re-attaches to the log anchored at slot and recovers it with one
// read-only walk (see Recovery in the package comment): every record is
// re-validated, a damaged sealed extent fails with ErrCorrupt, and appends
// resume where the last extent's records stop. An image of another format
// version fails with ErrVersion.
//
// Accounting after Open assumes every surviving record is live; a caller
// that can compute real liveness (the store walks its trees) should follow
// with ResetAccounting.
func Open(p *pmem.Pool, th *pmem.Thread, slot int) (*Log, error) {
	hdr := p.Root(th, slot)
	if hdr == 0 {
		return nil, fmt.Errorf("%w: no log at root slot %d", ErrCorrupt, slot)
	}
	magic := th.Load(hdr + hdrMagicWord*pmem.WordSize)
	if magic>>32 != logMagic {
		return nil, fmt.Errorf("%w: bad magic %#x at root slot %d", ErrCorrupt, magic, slot)
	}
	if v := magic & 0xffffffff; v != logVersion {
		return nil, fmt.Errorf("%w: image is version %d, this build reads version %d", ErrVersion, v, logVersion)
	}
	l := &Log{
		p:       p,
		hdrOff:  hdr,
		first:   int64(th.Load(hdr + hdrFirstWord*pmem.WordSize)),
		extSize: int64(th.Load(hdr + hdrExtWord*pmem.WordSize)),
	}
	if l.first == 0 || l.extSize <= 0 {
		return nil, fmt.Errorf("%w: empty extent chain", ErrCorrupt)
	}
	var st Stats
	last, stop, err := l.walk(th, l.first, 0, 0, &st)
	if err != nil {
		return nil, err
	}
	l.curExt, l.curEnd, l.tail = last, int64(th.Load(last+pmem.WordSize)), stop
	l.capBytes.Store(st.Cap)
	// Everything the walk passed is live until the caller says otherwise.
	l.live.Store(st.Bytes)
	return l, nil
}

// walk follows the extent chain from first, verifying every record's
// checksum and summing what it passes into st. Every extent but the last
// must end at its terminator. The last is cur, whose records must end
// exactly at tail — or, when cur is 0 (Open), the chain's end, whose
// records end at the first one that fails validation. walk returns the last
// extent and the offset its records stop at. The chain is bounded by the
// pool size, so a corrupt cycle cannot loop forever.
func (l *Log) walk(th *pmem.Thread, first, cur, tail int64, st *Stats) (last, stop int64, err error) {
	limit := l.p.Size()
	for ext, hops := first, int64(0); ; hops++ {
		if ext <= 0 || ext+extHdrBytes > limit || hops > limit/extHdrBytes {
			return 0, 0, fmt.Errorf("%w: extent chain leaves the arena", ErrCorrupt)
		}
		end := int64(th.Load(ext + pmem.WordSize))
		if end <= ext+extHdrBytes || end > limit {
			return 0, 0, fmt.Errorf("%w: extent %d has end %d", ErrCorrupt, ext, end)
		}
		next, bound := int64(th.Load(ext)), end
		if ext == cur {
			bound = tail
		}
		it := rec.Walk(th, ext+extHdrBytes, bound, true)
		for it.Next() {
			st.Records++
			st.Bytes += int64(it.Len)
		}
		st.Used += it.Off - ext - extHdrBytes
		st.Cap += end - ext - extHdrBytes
		st.Extents++
		switch {
		case ext == cur && it.Off != tail:
			return 0, 0, fmt.Errorf("%w: bad record at %d", ErrCorrupt, it.Off)
		case ext == cur || cur == 0 && next == 0:
			return ext, it.Off, nil
		case !it.Terminated():
			return 0, 0, fmt.Errorf("%w: bad record at %d in sealed extent %d", ErrCorrupt, it.Off, ext)
		}
		ext = next
	}
}

// allocExtent carves a zeroed extent of the given size out of the pool and
// persists its header (next = 0, end = off+size). The next word is stored
// explicitly even though Alloc hands out zeroed memory: freed extents may
// be recycled, and the allocator's zeroing is volatile (outside the
// crash-ordered store stream), so a crash image could otherwise resurrect
// the stale chain pointer the extent held in its previous life.
func (l *Log) allocExtent(th *pmem.Thread, size int64) (int64, error) {
	off, err := l.p.Alloc(size, pmem.LineSize)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFull, err)
	}
	th.Store(off, 0)
	th.Store(off+pmem.WordSize, uint64(off+size))
	th.Flush(off, extHdrBytes)
	l.capBytes.Add(size - extHdrBytes)
	return off, nil
}

// Append publishes val as one record owned by key and returns its Ref. The
// record is durable when Append returns; a crash mid-append can only lose
// the whole record, never expose a torn one. Appends to one Log serialise
// on its mutex; the pmem traffic is issued through the caller's thread.
func (l *Log) Append(th *pmem.Thread, key uint64, val []byte) (Ref, error) {
	if len(val) > MaxValue {
		return 0, fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, len(val), MaxValue)
	}
	need := rec.Size(len(val))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tail+need > l.curEnd {
		if err := l.grow(th, need); err != nil {
			return 0, err
		}
	}
	off := l.tail
	if off+need >= maxOffset {
		return 0, fmt.Errorf("%w: offset exceeds Ref range", ErrFull)
	}
	// One store per word and one flush: the flush publishes the record.
	rec.Write(th, off, []uint64{key}, val)
	l.tail = off + need
	l.live.Add(int64(len(val)))
	return MakeRef(off, len(val)), nil
}

// Admit reports whether the log can accept a record of valLen payload bytes
// without eating the pool's GC headroom. A record that fits the current
// extent is always admitted (the space is already carved out); one that
// forces growth is admitted only if the pool can hold the new extent PLUS
// one extra extent of reserve, so a GC pass can still stage relocations
// after the append. On refusal it returns an ErrFull-wrapped error; reads,
// deletes, and GC are unaffected, and the condition clears once GC returns
// extents to the pool.
//
// Admission is advisory, not a reservation: a racing writer can consume the
// headroom between Admit and Append, in which case Append itself fails with
// ErrFull. The point of Admit is the asymmetry — it refuses while the pool
// still has room for compaction to make progress, where waiting for
// Append's own ErrFull would leave GC wedged too (nowhere to relocate).
func (l *Log) Admit(valLen int) error {
	if valLen > MaxValue {
		return fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, valLen, MaxValue)
	}
	need := rec.Size(valLen)
	l.mu.Lock()
	room := l.curEnd - l.tail
	l.mu.Unlock()
	if room >= need {
		return nil
	}
	size := l.extentFor(need)
	if free := l.p.FreeBytes(); free < size+l.extSize {
		return fmt.Errorf("%w: admission refused: %d bytes free, need %d plus %d GC reserve",
			ErrFull, free, size, l.extSize)
	}
	return nil
}

// extentFor returns the size of the extent growth allocates for a record of
// need bytes: the configured size, or a one-off extent the record fits.
func (l *Log) extentFor(need int64) int64 { return max(l.extSize, plog.Lines(need+extHdrBytes)) }

// grow seals the current extent and links a fresh one that fits a record of
// need bytes. The terminator — a zero header word at the tail, when the
// extent has room for one — is persisted first and the new extent's header
// next; only then, behind a store fence, is the new extent linked. So
// recovery never follows a pointer to uninitialised space, and every sealed
// extent ends at its terminator.
func (l *Log) grow(th *pmem.Thread, need int64) error {
	if l.tail+pmem.WordSize <= l.curEnd {
		th.Store(l.tail, 0)
		th.Flush(l.tail, pmem.WordSize)
	}
	size := l.extentFor(need)
	ext, err := l.allocExtent(th, size)
	if err != nil {
		return err
	}
	th.StoreFence()
	th.Store(l.curExt, uint64(ext))
	th.Flush(l.curExt, pmem.WordSize)
	l.curExt, l.curEnd, l.tail = ext, ext+size, ext+extHdrBytes
	return nil
}

// Read resolves ref and appends the record's payload to dst, returning the
// extended slice. It is ReadKeyed for whichever key owns the record: it
// validates the header against the Ref and the key and payload against the
// record checksum, so a Ref forged from a fixed-width tree value fails with
// ErrBadRef (or, with negligible probability for a colliding header,
// ErrCorrupt) instead of returning garbage. Read is lock-free; the caller
// is responsible for not racing a GC free of the record's extent (the store
// brackets ref resolution in a pmem grace section, which the GC fence waits
// out).
func (l *Log) Read(th *pmem.Thread, ref Ref, dst []byte) ([]byte, error) {
	var owner uint64
	if l.inBounds(ref) {
		owner = th.Load(ref.Off() + pmem.WordSize)
	}
	return l.ReadKeyed(th, owner, ref, dst)
}

// ReadKeyed is Read for a caller that knows which key the ref came from:
// it additionally rejects, with ErrBadRef, a record owned by a different
// key. The store resolves every tree ref through this, so a fixed-width
// value that happens to decode as a plausible ref still cannot alias
// another key's record.
func (l *Log) ReadKeyed(th *pmem.Thread, key uint64, ref Ref, dst []byte) ([]byte, error) {
	off, n := ref.Off(), ref.Len()
	hdr, fault := l.classify(th, key, ref)
	switch fault {
	case refBounds:
		return dst, fmt.Errorf("%w: off %d len %d", ErrBadRef, off, n)
	case refHeader:
		return dst, fmt.Errorf("%w: header disagrees with ref length %d", ErrBadRef, n)
	case refOwner:
		return dst, fmt.Errorf("%w: record owned by key %d, not %d", ErrBadRef, th.Load(off+pmem.WordSize), key)
	}
	start := len(dst)
	dst = rec.AppendPayload(th, dst, off, n)
	if _, crc := plog.Header(hdr); plog.RecordCRC([]uint64{key}, dst[start:]) != crc {
		return dst[:start], fmt.Errorf("%w: checksum mismatch at %d", ErrCorrupt, off)
	}
	return dst, nil
}

// prefetchMaxLines caps the lines one Prefetch asks for: a record longer
// than that is copied in a sequential run the host prefetches by itself.
const prefetchMaxLines = 8

// Prefetch asks the host to start filling the first lines of the record ref
// names, so that a read of it issued soon after does not wait out the miss.
// It is a hint: it reads nothing, charges nothing, and ignores a ref that
// does not fit the arena. A ref that no longer names a record (GC moved it,
// or the word was never a ref) only warms lines nobody reads; the read that
// follows still validates.
func (l *Log) Prefetch(th *pmem.Thread, ref Ref) {
	if !l.inBounds(ref) {
		return
	}
	first := ref.Off() / pmem.LineSize
	last := (ref.Off() + rec.Size(ref.Len()) - 1) / pmem.LineSize
	th.Prefetch(first*pmem.LineSize, int(min(last-first+1, prefetchMaxLines)))
}

// refFault says why a ref does not name a record owned by a key.
type refFault uint8

const (
	refOK     refFault = iota
	refBounds          // offset or length outside the arena
	refHeader          // header length disagrees with the ref
	refOwner           // record written under another key
)

// inBounds reports whether ref names an aligned record that fits the arena.
func (l *Log) inBounds(ref Ref) bool {
	off := ref.Off()
	return off > 0 && off%pmem.WordSize == 0 && off+rec.Size(ref.Len()) <= l.p.Size()
}

// classify checks that ref names a record owned by key: bounds,
// header/length agreement, and the stored key word, returning the header
// word it read. It does not checksum the payload. It is the one copy of
// these checks: IsRecord reads the verdict as a bool without allocating
// (garbage accounting runs it on every displaced tree word), ReadKeyed
// renders it as an error.
func (l *Log) classify(th *pmem.Thread, key uint64, ref Ref) (uint64, refFault) {
	if !l.inBounds(ref) {
		return 0, refBounds
	}
	hdr := th.Load(ref.Off())
	if n, _ := plog.Header(hdr); n != ref.Len() {
		return hdr, refHeader
	}
	if th.Load(ref.Off()+pmem.WordSize) != key {
		return hdr, refOwner
	}
	return hdr, refOK
}

// IsRecord reports whether ref names a published record owned by key
// (header and key word agree with the ref; the payload is not checksummed).
// It is the cheap validity test behind garbage accounting: a fixed-width
// tree value misread as a ref fails it.
func (l *Log) IsRecord(th *pmem.Thread, key uint64, ref Ref) bool {
	_, fault := l.classify(th, key, ref)
	return fault == refOK
}

// MarkStale records that the caller overwrote or deleted the tree entry
// that pointed at ref: the record's payload bytes move from the live to the
// garbage side of the accounting. Words that do not name a record owned by
// key (a fixed-width value, or a ref already reclaimed) are ignored, so the
// caller may feed it every replaced tree word without classifying them
// first. It reports whether the bytes were counted.
func (l *Log) MarkStale(th *pmem.Thread, key uint64, ref Ref) bool {
	if !l.IsRecord(th, key, ref) {
		return false
	}
	n := int64(ref.Len())
	l.live.Add(-n)
	l.garbage.Add(n)
	return true
}

// ResetAccounting overwrites the live/garbage byte counters, for a caller
// that recomputed real liveness after recovery (Open alone must assume
// every surviving record is live).
func (l *Log) ResetAccounting(live, garbage int64) {
	l.live.Store(live)
	l.garbage.Store(garbage)
}

// --- garbage collection ----------------------------------------------------

// GCFuncs are the index-layer callbacks a GC pass drives. The log knows
// which key each record was written under but not whether that key still
// points here — only the tree does.
type GCFuncs struct {
	// Live reports whether key's tree entry still names ref. It is the
	// cheap pre-copy filter; Swap is the authority. Optional (nil treats
	// every record as possibly-live and lets Swap decide).
	Live func(key uint64, ref Ref) bool
	// Swap atomically replaces key's tree entry old→new, refusing if the
	// entry no longer holds old (the application overwrote or deleted the
	// key mid-GC — the fresh copy is then abandoned as garbage). Required.
	Swap func(key uint64, old, new Ref) bool
	// Fence is a quiescence barrier, called once before the pass's first
	// sweep and once per extent before it is freed. It must not return
	// while any writer that started before the call is mid-flight
	// between appending a record and installing its ref in the tree, nor
	// while any reader can still hold a reference snapshot taken before
	// the sweep's swaps (the store implements it as
	// pmem.Pool.Synchronize: lookups open a grace section for the
	// resolve window, writers across append+install). Optional only when
	// no concurrent readers or writers exist.
	Fence func()
}

// GCResult describes one GC call's work.
type GCResult struct {
	Extents        int   // extents unlinked and freed
	ReclaimedBytes int64 // arena bytes returned to the pool, headers included
	Relocated      int   // live records copied to the tail
	RelocatedBytes int64 // their payload bytes
	DroppedBytes   int64 // payload of dead records discarded with their extents
	Skipped        int   // relocations abandoned: the key changed mid-GC
	Busy           bool  // wait was false and another pass (or Check) held the log: nothing ran
}

// GC reclaims up to maxExtents (0 = no bound) sealed extents from the head
// of the chain — the oldest records first. For each extent it relocates the
// records the index still references (copy to the tail with the ordinary
// failure-atomic Append, then f.Swap the tree entry old→new), then fences
// and unlinks and frees the extent. One sweep per extent suffices because
// the pass fences once on entry: a liveness verdict could only go stale
// through a writer that appended into a victim before it was sealed and
// installs the ref later, and every such writer is inside the caller's
// grace section across append+install, opened before the pass began, so
// the entry fence waits it out. Each append's ref is installed at most
// once, so after that fence no ref into a victim can appear; each
// extent's own fence then drains readers still holding pre-sweep
// snapshots before its memory is recycled. The extent holding the append
// tail is never touched, so GC runs concurrently with appends and
// lock-free reads; passes serialise with each other on gcMu. A caller that
// must not queue behind a running pass — the store's automatic trigger,
// fired from a writer's own operation — passes wait=false: GC then only
// tries the lock and, when it is taken, returns at once with Busy set.
//
// Crash-wise every step is covered by an existing argument: the copies are
// ordinary appends (all-or-nothing via their own flush), each swap is the
// tree's single atomic 8-byte value store, and the unlink is one persisted
// store of the chain-head pointer issued only after the swaps' flushes
// completed. A crash anywhere leaves each live key naming exactly one
// intact copy of its value; at worst the new copies (pre-swap) or the whole
// victim extent (pre-unlink, post-swap) survive as garbage for the next
// pass. Freed space is recycled by later extent allocations.
//
// A corrupt live record aborts the pass with ErrCorrupt rather than
// propagating bad bytes; pool exhaustion mid-copy aborts with ErrFull
// (compaction needs headroom for one extent's live data — callers should
// GC before the pool is wholly full, which the store's garbage-ratio
// trigger does).
func (l *Log) GC(th *pmem.Thread, maxExtents int, wait bool, f GCFuncs) (GCResult, error) {
	var res GCResult
	if f.Swap == nil {
		return res, errors.New("vlog: GC requires a Swap callback")
	}
	if wait {
		l.gcMu.Lock()
	} else if !l.gcMu.TryLock() {
		res.Busy = true
		return res, nil
	}
	defer l.gcMu.Unlock()
	// The pass is bounded by the chain as it stood on entry: relocation
	// appends grow the tail, and without a stopping extent a full pass
	// would chase it forever, re-copying its own copies. Stopping at the
	// entry-time current extent visits every extent that could hold
	// pre-pass garbage exactly once.
	l.mu.Lock()
	stop, first := l.curExt, l.first
	l.mu.Unlock()
	if first == 0 || first == stop {
		return res, nil // nothing sealed: the current extent is never reclaimed
	}
	// Entry fence: every victim was sealed before stop became current, so
	// every append into a victim happened before the read above, inside
	// its writer's append+install section. Once those writers drain, no
	// ref into a victim can be installed again (each append's ref is
	// installed at most once, by its own writer), and one sweep per
	// extent sees every record the tree will ever name there.
	if f.Fence != nil {
		f.Fence()
	}
	var buf []byte
	for maxExtents <= 0 || res.Extents < maxExtents {
		l.mu.Lock()
		victim := l.first
		l.mu.Unlock()
		if victim == 0 || victim == stop {
			break // never reclaim the extent appends are landing in
		}
		end := int64(th.Load(victim + pmem.WordSize))
		// Sweep the victim, relocating every record the index references,
		// and total the payload bytes it holds so the garbage accounting
		// settles at free time (every byte left behind is dead by then).
		// Safe without locks: appends only touch the current extent,
		// records are immutable once published, and gcMu makes this the
		// only GC pass. Headers only: what is relocated is checksummed by
		// ReadKeyed.
		var payload, relocated int64
		it := rec.Walk(th, victim+extHdrBytes, end, false)
		for it.Next() {
			n, key, ref := int64(it.Len), it.Meta[0], MakeRef(it.Off, it.Len)
			payload += n
			if f.Live != nil && !f.Live(key, ref) {
				continue
			}
			var err error
			buf, err = l.ReadKeyed(th, key, ref, buf[:0])
			if err != nil {
				return res, fmt.Errorf("vlog: GC copy of key %d: %w", key, err)
			}
			newRef, err := l.Append(th, key, buf)
			if err != nil {
				return res, fmt.Errorf("vlog: GC relocation of key %d: %w", key, err)
			}
			if f.Swap(key, ref, newRef) {
				// The old copy dies with its extent; Append already
				// counted the new one live, so only retire the old.
				l.live.Add(-n)
				l.relocated.Add(1)
				res.Relocated++
				relocated += n
				res.RelocatedBytes += n
			} else {
				// The application overwrote or deleted the key between
				// our copy and our swap; its own MarkStale covered the
				// old copy, and the fresh copy is garbage a future pass
				// will drop.
				l.live.Add(-n)
				l.garbage.Add(n)
				res.Skipped++
			}
		}
		if !it.Terminated() {
			return res, fmt.Errorf("%w: bad record header at %d during GC", ErrCorrupt, it.Off)
		}
		// Readers may still hold pre-swap refs into the victim; they must
		// drain before its memory can be recycled (and rezeroed) by a
		// later allocation. New resolutions re-read the tree, which no
		// longer names the victim.
		if f.Fence != nil {
			f.Fence()
		}
		dropped := payload - relocated
		res.DroppedBytes += dropped
		// Unlink: one persisted 8-byte store moves the chain head past
		// the victim. The fence orders it after the relocations' flushes
		// on NonTSO; a crash before the flush lands leaves the victim
		// linked, full of dead records — the next pass redoes it.
		l.mu.Lock()
		next := int64(th.Load(victim))
		th.StoreFence()
		th.Store(l.hdrOff+hdrFirstWord*pmem.WordSize, uint64(next))
		th.Flush(l.hdrOff+hdrFirstWord*pmem.WordSize, pmem.WordSize)
		l.first = next
		l.mu.Unlock()
		size := end - victim
		l.p.Free(victim, size)
		l.capBytes.Add(-(size - extHdrBytes))
		l.reclaimed.Add(size)
		l.garbage.Add(-dropped)
		l.gcPasses.Add(1)
		res.Extents++
		res.ReclaimedBytes += size
	}
	return res, nil
}

// --- statistics ------------------------------------------------------------

// Stats describes a log's space accounting. Records/Bytes/Used/Extents are
// filled by the full walk in Check; the counter fields are also available
// cheaply through QuickStats. Live+Garbage can drift below Bytes when keys
// written through the varlen API are later touched through the fixed-width
// one (the store cannot attribute those bytes); recovery recomputes both
// from the tree, and GC settles them extent by extent.
type Stats struct {
	Records int   // published records (walk)
	Bytes   int64 // payload bytes in published records (walk)
	Used    int64 // bytes consumed by records incl. headers and padding (walk)
	Extents int   // extents in the chain (walk)
	Cap     int64 // record space across all allocated extents

	Live      int64 // payload bytes the index still references
	Garbage   int64 // payload bytes of overwritten/deleted records
	Reclaimed int64 // arena bytes GC returned to the pool
	Relocated int64 // records GC copied forward
	GCPasses  int64 // extents GC reclaimed
}

// GarbageRatio is the fraction of accounted payload bytes that are garbage,
// in [0,1] — the store's auto-GC trigger input.
func (s Stats) GarbageRatio() float64 {
	total := s.Live + s.Garbage
	if total <= 0 {
		return 0
	}
	return float64(s.Garbage) / float64(total)
}

// QuickStats returns the counter-backed statistics without walking the log.
func (l *Log) QuickStats() Stats {
	live, garbage := l.live.Load(), l.garbage.Load()
	if live < 0 {
		live = 0
	}
	if garbage < 0 {
		garbage = 0
	}
	return Stats{
		Cap:       l.capBytes.Load(),
		Live:      live,
		Garbage:   garbage,
		Reclaimed: l.reclaimed.Load(),
		Relocated: l.relocated.Load(),
		GCPasses:  l.gcPasses.Load(),
	}
}

// Check walks the whole log, re-validating every published record, and
// returns the space accounting. It is the testing/diagnostic counterpart
// of Open's recovery walk. Check excludes concurrent GC passes (their
// unlinks would pull the chain out from under the walk) but not concurrent
// appends, whose records it simply does not visit.
func (l *Log) Check(th *pmem.Thread) (Stats, error) {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	l.mu.Lock()
	tail, curExt, first := l.tail, l.curExt, l.first
	l.mu.Unlock()
	st := l.QuickStats()
	st.Cap = 0
	_, _, err := l.walk(th, first, curExt, tail, &st)
	return st, err
}
