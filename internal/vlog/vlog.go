// Package vlog is a crash-consistent, append-only value log in simulated
// persistent memory: the indirection layer that gives the 8-byte FAST+FAIR
// tree variable-length values without touching its failure-atomicity
// argument. The tree keeps storing one uint64 per key; for byte-string
// values that word is a Ref — a packed (offset, length) pointer into this
// log — following the pointer-into-PM reading of values the paper itself
// uses (§3) and the log-structured value separation of WiscKey/Badger.
//
// # Persistence protocol
//
// A record is published in three ordered steps, all within the hardware
// contract the emulator models (8-byte failure-atomic stores, explicit
// cache-line write-back, store fencing):
//
//  1. The payload words, the owning key, and the record header (length+1
//     and a CRC-32C of key+payload packed into one 8-byte word) are stored
//     and flushed.
//  2. A store fence orders the record ahead of its publication (free on
//     TSO, a dmb on NonTSO).
//  3. The log tail — a single 8-byte word in the log header line — is
//     advanced over the record with one atomic store and flushed.
//
// The tail store is the commit point: a crash before it leaves the record
// bytes beyond the persisted tail, where they are unreachable garbage; a
// crash after it leaves a fully-flushed record below the tail. No crash can
// expose a torn record through a published tail.
//
// # Recovery
//
// Open re-attaches to a log image and eagerly repairs it: it walks the
// extent chain, bounds-checks the persisted tail, rewinds it into the last
// extent if a crash interrupted extent growth, truncates the torn or
// unpublished record at the tail (zeroing its header word so later scans
// terminate there), and then validates every published record's header and
// checksum from the beginning of the log. Validation failures below the
// tail — impossible under the publish protocol, but checked anyway —
// truncate the log at the first bad record.
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
// records. The caller supplies a Fence callback, invoked between the last
// swap and the free, to drain readers that may still hold a pre-swap
// reference snapshot (see GCFuncs).
//
// Live/garbage byte accounting is volatile and caller-assisted: Append
// counts the new record live, MarkStale moves the bytes of an overwritten
// or deleted record to the garbage side, and the caller reconstructs both
// counters after recovery (the log alone cannot know liveness).
package vlog

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

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
//	word 2: tail — arena offset of the next append (the commit point)
//	word 3: configured extent size
//
// Extent layout: a 16-byte header then record space.
//
//	word 0: offset of the next extent (0 = end of chain)
//	word 1: offset one past the extent (its exclusive end)
//
// Record layout: an 8-byte header, the 8-byte key the record was written
// under, then the payload, padded to whole words.
//
//	header: (payload length + 1) in the low 32 bits, CRC-32C of the
//	        key bytes followed by the payload in the high 32. A zero
//	        header word terminates the record sequence of an extent
//	        (extents are allocated zeroed, and truncation re-zeroes the
//	        header at the tail).
//
// The +1 keeps an empty record's header nonzero, so "no record here" and
// "zero-length record" stay distinguishable. The key word exists for GC:
// a compaction pass walking an extent must ask the index layer "does key K
// still point at this record?", which requires knowing K (the WiscKey
// arrangement — the log is the authority on which key owns a record).
const (
	logMagic   = uint64(0x564c4f47) // "VLOG"
	logVersion = 2                  // version 1 records carried no key word

	hdrMagicWord = 0
	hdrFirstWord = 1
	hdrTailWord  = 2
	hdrExtWord   = 3
	hdrBytes     = pmem.LineSize

	extHdrBytes = 2 * pmem.WordSize

	// recHdrBytes is the fixed per-record overhead: header word + key word.
	recHdrBytes = 2 * pmem.WordSize

	// DefaultExtent is the extent size used when Options leave it zero.
	DefaultExtent = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recordCRC hashes the record's key bytes (little-endian) followed by its
// payload: the checksum ties the payload to its owner, so a Ref forged for
// the wrong key fails validation even at a colliding offset. The key bytes
// are folded in with the table directly — a temporary byte slice would
// escape into the (assembly-backed) crc32.Update and put one heap
// allocation on the zero-alloc read path.
func recordCRC(key uint64, val []byte) uint32 {
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = crcTable[byte(crc)^byte(key>>(8*i))] ^ crc>>8
	}
	// crc32.Update takes and returns finalized values; unfinalize the raw
	// state around the (fast, possibly vectorised) payload pass. The
	// result equals crc32.Update(crc32.Update(0, t, keyLE), t, val).
	return crc32.Update(^crc, crcTable, val)
}

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
	tail    int64 // next append offset (mirrors the persisted tail word)
	curExt  int64 // extent containing tail
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
	extSize = roundUp(extSize, pmem.LineSize)
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
	th.Store(hdr+hdrTailWord*pmem.WordSize, uint64(l.tail))
	th.Store(hdr+hdrExtWord*pmem.WordSize, uint64(extSize))
	th.Store(hdr+hdrMagicWord*pmem.WordSize, logMagic<<32|logVersion)
	th.Persist(hdr, hdrBytes)
	p.SetRoot(th, slot, hdr)
	return l, nil
}

// Open re-attaches to the log anchored at slot and runs recovery: the tail
// is bounds-checked and rewound into the last extent if a crash interrupted
// growth, the record at the tail (torn or unpublished) is truncated, and
// every published record is re-validated from the start of the log.
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
	if magic>>32 != logMagic || magic&0xffffffff != logVersion {
		return nil, fmt.Errorf("%w: bad magic %#x at root slot %d", ErrCorrupt, magic, slot)
	}
	l := &Log{
		p:       p,
		hdrOff:  hdr,
		first:   int64(th.Load(hdr + hdrFirstWord*pmem.WordSize)),
		tail:    int64(th.Load(hdr + hdrTailWord*pmem.WordSize)),
		extSize: int64(th.Load(hdr + hdrExtWord*pmem.WordSize)),
	}
	if l.first == 0 || l.extSize <= 0 {
		return nil, fmt.Errorf("%w: empty extent chain", ErrCorrupt)
	}
	if err := l.recover(th); err != nil {
		return nil, err
	}
	return l, nil
}

// recover restores the append invariants after a crash (see Open).
func (l *Log) recover(th *pmem.Thread) error {
	// Walk the chain to its last extent, remembering the extent holding
	// the persisted tail. The chain is bounded by the pool size, so a
	// corrupt cycle cannot loop forever.
	var tailExt, tailEnd int64
	last, lastEnd := int64(0), int64(0)
	limit := l.p.Size()
	var capSum int64
	for ext, hops := l.first, int64(0); ext != 0; hops++ {
		if ext < 0 || ext+extHdrBytes > limit || hops > limit/extHdrBytes {
			return fmt.Errorf("%w: extent chain leaves the arena", ErrCorrupt)
		}
		end := int64(th.Load(ext + pmem.WordSize))
		if end <= ext+extHdrBytes || end > limit {
			return fmt.Errorf("%w: extent %d has end %d", ErrCorrupt, ext, end)
		}
		if l.tail >= ext+extHdrBytes && l.tail <= end {
			tailExt, tailEnd = ext, end
		}
		capSum += end - ext - extHdrBytes
		last, lastEnd = ext, end
		ext = int64(th.Load(ext))
	}
	if tailExt == 0 {
		return fmt.Errorf("%w: tail %d is outside every extent", ErrCorrupt, l.tail)
	}
	l.capBytes.Store(capSum)
	// A crash between linking a fresh extent and moving the tail leaves
	// the tail in an earlier extent. Everything at or beyond it is
	// unpublished; resume in the last extent so the chain order stays the
	// append order. (The abandoned space was already terminated with a
	// zero header word by growth, or is truncated just below.)
	if tailExt != last {
		l.truncate(th, l.tail, tailEnd)
		l.tail = last + extHdrBytes
		l.persistTail(th)
	}
	l.curExt, l.curEnd = last, lastEnd
	// Truncate the record straddling the tail: a torn append, or a
	// complete one whose publication never landed. Either way nothing
	// references it.
	l.truncate(th, l.tail, l.curEnd)

	// Defensive full-log validation: the publish protocol guarantees every
	// record below the tail is intact, so any failure here means the image
	// itself is damaged; truncating at the first bad record keeps the
	// intact prefix serviceable. The walk also sums payload bytes, which
	// seed the liveness accounting (everything live until the caller says
	// otherwise).
	var payload int64
	for ext := l.first; ext != 0; {
		end := int64(th.Load(ext + pmem.WordSize))
		pos := ext + extHdrBytes
		for pos+pmem.WordSize <= end {
			if ext == l.curExt && pos >= l.tail {
				break
			}
			hdr := th.Load(pos)
			if hdr == 0 {
				break // rest of the extent is unused
			}
			n := int64(hdr&0xffffffff) - 1
			rend := pos + recHdrBytes + roundUp(n, pmem.WordSize)
			if n < 0 || n > MaxValue || rend > end ||
				(ext == l.curExt && rend > l.tail) ||
				l.checksumAt(th, pos, int(n)) != uint32(hdr>>32) {
				l.tail = pos
				l.curExt, l.curEnd = ext, end
				l.truncate(th, pos, end)
				l.persistTail(th)
				l.live.Store(payload)
				return nil
			}
			payload += n
			pos = rend
		}
		if ext == l.curExt {
			break
		}
		ext = int64(th.Load(ext))
	}
	l.live.Store(payload)
	return nil
}

// truncate zeroes and persists the record header at off (when the extent
// has room for one), so scans terminate there.
func (l *Log) truncate(th *pmem.Thread, off, end int64) {
	if off+pmem.WordSize > end {
		return
	}
	th.Store(off, 0)
	th.Flush(off, pmem.WordSize)
}

// persistTail publishes l.tail with the fenced 8-byte store that commits
// appends.
func (l *Log) persistTail(th *pmem.Thread) {
	th.StoreFence()
	off := l.hdrOff + hdrTailWord*pmem.WordSize
	th.Store(off, uint64(l.tail))
	th.Flush(off, pmem.WordSize)
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
	th.Persist(off, extHdrBytes)
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
	need := recHdrBytes + roundUp(int64(len(val)), pmem.WordSize)
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.tail+need > l.curEnd {
		if err := l.grow(th, need); err != nil {
			return 0, err
		}
	}
	off := l.tail
	if off+need >= maxOffset {
		return 0, fmt.Errorf("%w: offset exceeds Ref range", ErrFull)
	}
	// Step 1: payload words, the key, then the header word, flushed
	// together.
	for i, pos := 0, off+recHdrBytes; i < len(val); i, pos = i+8, pos+pmem.WordSize {
		th.Store(pos, packWord(val[i:]))
	}
	th.Store(off+pmem.WordSize, key)
	crc := recordCRC(key, val)
	th.Store(off, uint64(len(val)+1)|uint64(crc)<<32)
	th.Flush(off, need)
	// Steps 2+3: fence, then commit by advancing the tail over the record.
	l.tail = off + need
	l.persistTail(th)
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
	need := recHdrBytes + roundUp(int64(valLen), pmem.WordSize)
	l.mu.Lock()
	room := l.curEnd - l.tail
	l.mu.Unlock()
	if room >= need {
		return nil
	}
	size := l.extSize
	if min := need + extHdrBytes; size < min {
		size = roundUp(min, pmem.LineSize)
	}
	if free := l.p.FreeBytes(); free < size+l.extSize {
		return fmt.Errorf("%w: admission refused: %d bytes free, need %d plus %d GC reserve",
			ErrFull, free, size, l.extSize)
	}
	return nil
}

// grow makes room for a record of `need` bytes: it advances into an
// already-linked next extent (left over from a crashed growth) or allocates
// and links a fresh one. The abandoned space in the old extent is
// terminated with a zero header word so scans stop there.
func (l *Log) grow(th *pmem.Thread, need int64) error {
	l.truncate(th, l.tail, l.curEnd)
	next := int64(th.Load(l.curExt))
	if next == 0 {
		size := l.extSize
		if min := need + extHdrBytes; size < min {
			size = roundUp(min, pmem.LineSize)
		}
		ext, err := l.allocExtent(th, size)
		if err != nil {
			return err
		}
		// Link after the extent header is durable, so recovery never
		// follows a pointer to uninitialised space.
		th.StoreFence()
		th.Store(l.curExt, uint64(ext))
		th.Flush(l.curExt, pmem.WordSize)
		next = ext
	}
	l.curExt = next
	l.curEnd = int64(th.Load(next + pmem.WordSize))
	l.tail = next + extHdrBytes
	// Publishing the moved tail commits the growth; the record that
	// triggered it commits separately with its own tail advance.
	l.persistTail(th)
	return nil
}

// Read resolves ref and appends the record's payload to dst, returning the
// extended slice. It validates the header against the Ref and the key and
// payload against the record checksum, so a Ref forged from a fixed-width
// tree value fails with ErrBadRef (or, with negligible probability for a
// colliding header, ErrCorrupt) instead of returning garbage. Read is
// lock-free; the caller is responsible for not racing a GC free of the
// record's extent (the store brackets ref resolution in a pmem grace
// section, which the GC fence waits out).
func (l *Log) Read(th *pmem.Thread, ref Ref, dst []byte) ([]byte, error) {
	off, n := ref.Off(), ref.Len()
	if off <= 0 || off%pmem.WordSize != 0 || n > MaxValue ||
		off+recHdrBytes+roundUp(int64(n), pmem.WordSize) > l.p.Size() {
		return dst, fmt.Errorf("%w: off %d len %d", ErrBadRef, off, n)
	}
	hdr := th.Load(off)
	if int64(hdr&0xffffffff) != int64(n)+1 {
		return dst, fmt.Errorf("%w: header disagrees with ref length %d", ErrBadRef, n)
	}
	key := th.Load(off + pmem.WordSize)
	start := len(dst)
	dst = appendPayload(th, dst, off+recHdrBytes, n)
	if crc := recordCRC(key, dst[start:]); crc != uint32(hdr>>32) {
		return dst[:start], fmt.Errorf("%w: checksum mismatch at %d", ErrCorrupt, off)
	}
	return dst, nil
}

// ReadKeyed is Read for a caller that knows which key the ref came from:
// it additionally rejects, with ErrBadRef, a record owned by a different
// key. The store resolves every tree ref through this, so a fixed-width
// value that happens to decode as a plausible ref still cannot alias
// another key's record.
func (l *Log) ReadKeyed(th *pmem.Thread, key uint64, ref Ref, dst []byte) ([]byte, error) {
	if err := l.checkRecord(th, key, ref); err != nil {
		return dst, err
	}
	off, n := ref.Off(), ref.Len()
	hdr := th.Load(off)
	start := len(dst)
	dst = appendPayload(th, dst, off+recHdrBytes, n)
	if crc := recordCRC(key, dst[start:]); crc != uint32(hdr>>32) {
		return dst[:start], fmt.Errorf("%w: checksum mismatch at %d", ErrCorrupt, off)
	}
	return dst, nil
}

// refFault says why a ref does not name a record owned by a key.
type refFault uint8

const (
	refOK     refFault = iota
	refBounds          // offset or length outside the arena
	refHeader          // header length disagrees with the ref
	refOwner           // record written under another key
)

// classify checks that ref names a record owned by key: bounds,
// header/length agreement, and the stored key word. It does not checksum
// the payload. It is the one copy of these checks: IsRecord reads the
// verdict as a bool without allocating (garbage accounting runs it on
// every displaced tree word), checkRecord renders it as an error.
func (l *Log) classify(th *pmem.Thread, key uint64, ref Ref) refFault {
	off, n := ref.Off(), ref.Len()
	if off <= 0 || off%pmem.WordSize != 0 || n > MaxValue ||
		off+recHdrBytes+roundUp(int64(n), pmem.WordSize) > l.p.Size() {
		return refBounds
	}
	if int64(th.Load(off)&0xffffffff) != int64(n)+1 {
		return refHeader
	}
	if th.Load(off+pmem.WordSize) != key {
		return refOwner
	}
	return refOK
}

// checkRecord is classify for the read path, which reports the refusal.
func (l *Log) checkRecord(th *pmem.Thread, key uint64, ref Ref) error {
	switch l.classify(th, key, ref) {
	case refBounds:
		return fmt.Errorf("%w: off %d len %d", ErrBadRef, ref.Off(), ref.Len())
	case refHeader:
		return fmt.Errorf("%w: header disagrees with ref length %d", ErrBadRef, ref.Len())
	case refOwner:
		return fmt.Errorf("%w: record owned by key %d, not %d", ErrBadRef, th.Load(ref.Off()+pmem.WordSize), key)
	}
	return nil
}

// IsRecord reports whether ref names a published record owned by key
// (header and key word agree with the ref; the payload is not checksummed).
// It is the cheap validity test behind garbage accounting: a fixed-width
// tree value misread as a ref fails it.
func (l *Log) IsRecord(th *pmem.Thread, key uint64, ref Ref) bool {
	return l.classify(th, key, ref) == refOK
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
	// Fence is a quiescence barrier, called twice per reclaimed extent:
	// after the initial relocation sweep and again after the post-fence
	// catch-up sweep, always before the extent is freed. It must not
	// return while any reader can still hold a reference snapshot taken
	// before the sweep's swaps, nor while any writer is mid-flight
	// between appending a record and installing its ref in the tree (the
	// store implements it as pmem.Pool.Synchronize: lookups open a grace
	// section for the resolve window, writers across append+install).
	// Optional only when no concurrent
	// readers or writers exist.
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
// failure-atomic Append, then f.Swap the tree entry old→new), then runs a
// fence → catch-up sweep → fence sequence before unlinking and freeing the
// extent. The catch-up sweep exists because a liveness verdict can go
// stale: a writer that appended a record into this extent long ago may
// install its ref in the tree only after the first sweep judged the record
// dead. The first fence waits such writers out (they are inside the
// caller's grace section across append+install), the second sweep relocates
// whatever they installed, and — since appends into a sealed extent are over and
// each append's ref is installed at most once — nothing new can appear
// after it; the final fence then drains readers still holding pre-sweep
// snapshots before the memory is recycled. The extent holding the append
// tail is never touched, so GC runs concurrently with appends and
// lock-free reads; passes serialise with each other on gcMu. A caller that
// must not queue behind a running pass — the store's automatic trigger,
// fired from a writer's own operation — passes wait=false: GC then only
// tries the lock and, when it is taken, returns at once with Busy set.
//
// Crash-wise every step is covered by an existing argument: the copies are
// ordinary appends (all-or-nothing via the tail publish), each swap is the
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
	stop := l.curExt
	l.mu.Unlock()
	var buf []byte

	// sweep walks one sealed extent, relocating every record the index
	// references. It reports the payload bytes it saw so the caller can
	// settle the garbage accounting at free time (every byte left behind
	// is dead by then). Safe without locks: appends only touch the
	// current extent, records are immutable once published, and gcMu
	// makes this the only GC pass.
	sweep := func(victim, end int64) (payload, relocated int64, err error) {
		pos := victim + extHdrBytes
		for pos+pmem.WordSize <= end {
			hdr := th.Load(pos)
			if hdr == 0 {
				break
			}
			n := int64(hdr&0xffffffff) - 1
			rend := pos + recHdrBytes + roundUp(n, pmem.WordSize)
			if n < 0 || n > MaxValue || rend > end {
				return payload, relocated, fmt.Errorf("%w: bad record header at %d during GC", ErrCorrupt, pos)
			}
			payload += n
			key := th.Load(pos + pmem.WordSize)
			ref := MakeRef(pos, int(n))
			if f.Live != nil && !f.Live(key, ref) {
				pos = rend
				continue
			}
			buf, err = l.ReadKeyed(th, key, ref, buf[:0])
			if err != nil {
				return payload, relocated, fmt.Errorf("vlog: GC copy of key %d: %w", key, err)
			}
			newRef, err := l.Append(th, key, buf)
			if err != nil {
				return payload, relocated, fmt.Errorf("vlog: GC relocation of key %d: %w", key, err)
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
			pos = rend
		}
		return payload, relocated, nil
	}

	for maxExtents <= 0 || res.Extents < maxExtents {
		l.mu.Lock()
		victim, cur := l.first, l.curExt
		l.mu.Unlock()
		if victim == 0 || victim == stop || victim == cur {
			break // never reclaim the extent appends are landing in
		}
		end := int64(th.Load(victim + pmem.WordSize))
		payload, relocated, err := sweep(victim, end)
		if err != nil {
			return res, err
		}
		// First fence: no writer is left mid-flight between appending a
		// record into this (long-sealed) extent and installing its ref —
		// such installs would invalidate the sweep's dead verdicts.
		if f.Fence != nil {
			f.Fence()
		}
		// Catch-up sweep: relocate records whose ref was installed after
		// the first sweep judged them dead. After this, no record in the
		// victim can become referenced again (its ref is installed at
		// most once, by the writer that appended it, and those writers
		// have drained).
		_, relocated2, err := sweep(victim, end)
		if err != nil {
			return res, err
		}
		relocated += relocated2
		// Final fence: readers may still hold pre-sweep refs into the
		// victim; they must drain before its memory can be recycled (and
		// rezeroed) by a later allocation. New resolutions re-read the
		// tree, which no longer names the victim.
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
// of Open's recovery scan. Check excludes concurrent GC passes (their
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
	for ext := first; ext != 0; {
		end := int64(th.Load(ext + pmem.WordSize))
		st.Cap += end - ext - extHdrBytes
		st.Extents++
		pos := ext + extHdrBytes
		for pos+pmem.WordSize <= end {
			if ext == curExt && pos >= tail {
				break
			}
			hdr := th.Load(pos)
			if hdr == 0 {
				break
			}
			n := int64(hdr&0xffffffff) - 1
			rend := pos + recHdrBytes + roundUp(n, pmem.WordSize)
			if n < 0 || n > MaxValue || rend > end || (ext == curExt && rend > tail) {
				return st, fmt.Errorf("%w: bad record header at %d", ErrCorrupt, pos)
			}
			if l.checksumAt(th, pos, int(n)) != uint32(hdr>>32) {
				return st, fmt.Errorf("%w: checksum mismatch at %d", ErrCorrupt, pos)
			}
			st.Records++
			st.Bytes += n
			st.Used += rend - pos
			pos = rend
		}
		if ext == curExt {
			break
		}
		ext = int64(th.Load(ext))
	}
	return st, nil
}

// checksumAt computes the CRC-32C of the record at off: its key word
// followed by n payload bytes.
func (l *Log) checksumAt(th *pmem.Thread, off int64, n int) uint32 {
	var buf [8]byte
	key := th.Load(off + pmem.WordSize)
	for b := 0; b < 8; b++ {
		buf[b] = byte(key >> (8 * b))
	}
	crc := crc32.Update(0, crcTable, buf[:])
	pay := off + recHdrBytes
	for i := 0; i < n; i += 8 {
		w := th.Load(pay + int64(i))
		for b := 0; b < 8; b++ {
			buf[b] = byte(w >> (8 * b))
		}
		m := n - i
		if m > 8 {
			m = 8
		}
		crc = crc32.Update(crc, crcTable, buf[:m])
	}
	return crc
}

// packWord packs up to 8 payload bytes into one little-endian word,
// zero-padding the tail.
func packWord(b []byte) uint64 {
	var w uint64
	n := len(b)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		w |= uint64(b[i]) << (8 * i)
	}
	return w
}

// appendPayload appends n payload bytes stored word-packed at off to dst.
func appendPayload(th *pmem.Thread, dst []byte, off int64, n int) []byte {
	for i := 0; i < n; i += 8 {
		w := th.Load(off + int64(i))
		m := n - i
		if m > 8 {
			m = 8
		}
		for b := 0; b < m; b++ {
			dst = append(dst, byte(w>>(8*b)))
		}
	}
	return dst
}

func roundUp(v, m int64) int64 { return (v + m - 1) / m * m }
