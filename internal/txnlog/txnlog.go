// Package txnlog is a crash-consistent, bounded redo log for multi-key
// transactions in simulated persistent memory. A store shard gets one the
// first time a commit takes it: a commit owns one log for its duration,
// appends ONE KindCommit record — the whole encoded write-set, every
// shard's ops — to it, applies the write-set to the shards' trees, and
// truncates that log. The record's own flush is the commit point. Recovery
// scans every shard's log and replays the payload of every record whose
// transaction ID has a durable KindCommit record anywhere, discarding the
// rest. The store no longer writes KindIntent: the kind remains in the
// format, and recovery still honours it, for images a crashed commit of the
// earlier protocol left behind (a KindIntent record with that shard's
// write-set on every participating shard, then a payload-less KindCommit
// mark on the first of them).
//
// The log is one fixed-capacity region — no extent chain, no space
// accounting, no GC. The store lets one commit at a time own a log, so at
// most one transaction's records live in a log at a time and truncation
// always empties it.
//
// # Persistence protocol (format version 2: publish by flush)
//
// Records are internal/plog records with two meta words, and follow plog's
// one publish rule: there is no persisted tail, and a record is published
// by its own flush. Append stores the payload words, the transaction ID,
// the kind word (kind byte | the log's current GENERATION) and the header
// word (length+1 and a CRC-32C over ID, kind word and payload), flushes the
// record's lines — one flush call, one fence — and returns; the record is
// durable then. Truncate bumps the generation word in the log's header
// line and flushes that one line, which invalidates every record of the
// old generation at once. The append cursor (Len) is volatile.
//
// # Recovery
//
// Open walks the region from offset 0 with plog's iterator and keeps
// records while the header length is in bounds, the CRC matches, and the
// kind word carries the header's current generation; it stops at the first
// record failing any of the three. A crash mid-append leaves a record some
// of whose words never reached the media: its CRC fails and it is dropped
// whole, with every earlier record intact. The generation is what makes
// the walk safe without a tail: the region is never scrubbed, so a
// complete, CRC-clean record of an earlier generation can lie directly
// behind a shorter record of the current one, and it is refused
// deterministically, not by checksum luck. For the same reason no append
// may ever share a generation with bytes a crashed append left behind:
// Open starts a fresh generation when it recovers an empty log, and a log
// recovered WITH records refuses Append (ErrNotTruncated) until Truncate —
// a redo log's recovered records are replayed and dropped, never extended.
//
// The header's immutable words are guarded by a check word and the
// generation word carries its own check bits, so a damaged header fails
// Open closed (ErrCorrupt) instead of steering appends into foreign
// memory or resurrecting an old generation; a damaged record fails its
// CRC and ends the walk.
package txnlog

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/plog"
	"repro/internal/pmem"
)

// Kind tags a record's role in the commit protocol.
type Kind uint64

const (
	// KindIntent carries part of a transaction's encoded write-set; it
	// takes effect only if a KindCommit record with the same ID is durable
	// in some log.
	KindIntent Kind = 1
	// KindCommit commits its transaction ID wherever that ID's records
	// lie, and carries a payload of its own: the store's commit record is
	// one KindCommit holding the whole write-set.
	KindCommit Kind = 2
)

// Errors returned by the log.
var (
	// ErrTooLarge reports an Append that does not fit the log's fixed
	// capacity (even on an empty log).
	ErrTooLarge = errors.New("txnlog: record exceeds log capacity")
	// ErrFull reports an Append that does not fit the space remaining
	// behind the append cursor.
	ErrFull = errors.New("txnlog: log full")
	// ErrCorrupt reports an unreadable log image.
	ErrCorrupt = errors.New("txnlog: corrupt log")
	// ErrVersion reports a log image written in another format version.
	// There is no migration path: version 1 logs published records through
	// a persisted tail word this version neither reads nor maintains.
	ErrVersion = errors.New("txnlog: unsupported log format version")
	// ErrNotTruncated reports an Append to a log that Open recovered with
	// records in it. Bytes a crashed append left behind the recovered
	// records belong to the current generation, so nothing may be appended
	// in front of them; Truncate (which starts a new generation) first.
	ErrNotTruncated = errors.New("txnlog: recovered records must be truncated before appending")
)

// Log header layout: one cache line anchored at a pool root slot.
//
//	word 0: magic | version
//	word 1: arena offset of the record region
//	word 2: region capacity in bytes
//	word 3: generation<<8 | popcount(generation) — bumped by Truncate; the
//	        low byte makes every single-bit flip of the word detectable
//	word 4: ^(word 0 ^ word 1 ^ word 2), written once by Create
//
// Record layout: a plog record with two meta words — an 8-byte header, the
// 8-byte transaction ID, the 8-byte kind word, then the payload padded to
// whole words.
//
//	header: (payload length + 1) in the low 32 bits, CRC-32C of the ID,
//	        the kind word and the payload in the high 32. The +1 keeps
//	        an empty record's header nonzero.
//	kind:   the Kind in the low byte, the generation the record was
//	        appended under in the upper 56 bits.
const (
	logMagic   = uint64(0x54584c47) // "TXLG"
	logVersion = 2

	hdrMagicWord  = 0
	hdrRegionWord = 1
	hdrCapWord    = 2
	hdrGenWord    = 3
	hdrCheckWord  = 4
	hdrBytes      = pmem.LineSize

	// DefaultCap is the region capacity used when Create gets zero.
	DefaultCap = 1 << 20
)

// rec is the redo log's record format: the transaction ID and kind word.
var rec = plog.Format{Meta: 2}

// genWord encodes a generation for the header line.
func genWord(gen uint64) uint64 { return gen<<8 | uint64(bits.OnesCount64(gen)) }

// Log is a handle on one transaction log. Appends and truncations
// serialise on an internal mutex; the store additionally serialises whole
// commits per shard, so records from different transactions never
// interleave.
type Log struct {
	hdrOff int64

	mu        sync.Mutex
	region    int64
	cap       int64
	tail      int64  // next append offset within the region (volatile)
	gen       uint64 // current generation (mirrors the header word)
	recovered bool   // Open found records: Truncate before the next Append
}

// Rec is one decoded record, as yielded by Scan.
type Rec struct {
	ID      uint64
	Kind    Kind
	Payload []byte
}

// Capacity returns the log's fixed record-space capacity in bytes.
func (l *Log) Capacity() int64 { return l.cap }

// RecordSize returns the log bytes one record of payloadLen bytes
// occupies: header, ID and kind words plus the word-padded payload.
func RecordSize(payloadLen int) int64 { return rec.Size(payloadLen) }

// Create initialises an empty log of the given capacity (0 = DefaultCap)
// anchored at the pool root slot and persists it.
func Create(p *pmem.Pool, th *pmem.Thread, slot int, capBytes int64) (*Log, error) {
	if capBytes <= 0 {
		capBytes = DefaultCap
	}
	capBytes = plog.Lines(capBytes)
	hdr, err := p.Alloc(hdrBytes, pmem.LineSize)
	if err != nil {
		return nil, fmt.Errorf("txnlog: alloc header: %w", err)
	}
	region, err := p.Alloc(capBytes, pmem.LineSize)
	if err != nil {
		return nil, fmt.Errorf("txnlog: alloc region: %w", err)
	}
	l := &Log{hdrOff: hdr, region: region, cap: capBytes, gen: 1}
	magic := logMagic<<32 | logVersion
	th.Store(hdr+hdrRegionWord*pmem.WordSize, uint64(region))
	th.Store(hdr+hdrCapWord*pmem.WordSize, uint64(capBytes))
	th.Store(hdr+hdrGenWord*pmem.WordSize, genWord(l.gen))
	th.Store(hdr+hdrCheckWord*pmem.WordSize, ^(magic ^ uint64(region) ^ uint64(capBytes)))
	th.Store(hdr+hdrMagicWord*pmem.WordSize, magic)
	th.Flush(hdr, hdrBytes)
	p.SetRoot(th, slot, hdr)
	return l, nil
}

// Open re-attaches to the log anchored at slot and runs recovery: the
// header is checked (fail-closed), then the region is walked from offset 0
// and every record that is in bounds, CRC-clean and of the current
// generation is kept; the surviving records are exactly what Scan will
// yield. An empty recovered log starts a fresh generation (one persisted
// header store), so bytes of a record torn by the crash can never validate
// behind a later append; a log recovered with records keeps them durably
// valid and refuses Append until the caller Truncates.
func Open(p *pmem.Pool, th *pmem.Thread, slot int) (*Log, error) {
	hdr := p.Root(th, slot)
	if hdr <= 0 || hdr%pmem.LineSize != 0 || hdr > p.Size()-hdrBytes {
		return nil, fmt.Errorf("%w: no log header at root slot %d (offset %d)", ErrCorrupt, slot, hdr)
	}
	magic := th.Load(hdr + hdrMagicWord*pmem.WordSize)
	if magic>>32 != logMagic {
		return nil, fmt.Errorf("%w: bad magic %#x at root slot %d", ErrCorrupt, magic, slot)
	}
	if v := magic & 0xffffffff; v != logVersion {
		return nil, fmt.Errorf("%w: image is version %d, this build reads version %d", ErrVersion, v, logVersion)
	}
	region := th.Load(hdr + hdrRegionWord*pmem.WordSize)
	capBytes := th.Load(hdr + hdrCapWord*pmem.WordSize)
	if th.Load(hdr+hdrCheckWord*pmem.WordSize) != ^(magic ^ region ^ capBytes) {
		return nil, fmt.Errorf("%w: header check word mismatch at root slot %d", ErrCorrupt, slot)
	}
	l := &Log{hdrOff: hdr, region: int64(region), cap: int64(capBytes)}
	if l.region <= 0 || l.cap <= 0 || l.region%pmem.WordSize != 0 || l.cap%pmem.WordSize != 0 ||
		l.region > p.Size() || l.cap > p.Size()-l.region {
		return nil, fmt.Errorf("%w: region [%d,+%d) outside pool", ErrCorrupt, l.region, l.cap)
	}
	gw := th.Load(hdr + hdrGenWord*pmem.WordSize)
	l.gen = gw >> 8
	if gw != genWord(l.gen) {
		return nil, fmt.Errorf("%w: generation word %#x fails its check bits", ErrCorrupt, gw)
	}
	it := rec.Walk(th, l.region, l.region+l.cap, true)
	for it.Next() && l.current(it.Meta[1]) {
	}
	if l.tail = it.Off - l.region; l.tail == 0 {
		l.bumpGen(th)
	} else {
		l.recovered = true
	}
	return l, nil
}

// current reports whether a CRC-clean record's kind word names a known kind
// and the current generation: the records Open keeps.
func (l *Log) current(kindWord uint64) bool {
	kind := Kind(kindWord & 0xff)
	return kindWord>>8 == l.gen && (kind == KindIntent || kind == KindCommit)
}

// Append publishes one record with a single flush+fence of its own lines.
// It is durable when Append returns: a crash mid-append can only lose the
// whole record, never expose a torn one.
func (l *Log) Append(th *pmem.Thread, id uint64, kind Kind, payload []byte) error {
	need := RecordSize(len(payload))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.recovered {
		return ErrNotTruncated
	}
	if need > l.cap {
		return fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, need, l.cap)
	}
	if l.tail+need > l.cap {
		return fmt.Errorf("%w: %d bytes free, need %d", ErrFull, l.cap-l.tail, need)
	}
	l.tail += rec.Write(th, l.region+l.tail, []uint64{id, uint64(kind) | l.gen<<8}, payload)
	return nil
}

// Truncate durably empties the log by starting a new generation: one
// atomic persisted store to the header line, after which no record of the
// old generation validates. It is durable on return, and must be before
// the next transaction appends (the store holds the commit serialisation
// lock across both).
func (l *Log) Truncate(th *pmem.Thread) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tail == 0 {
		return
	}
	l.tail = 0
	l.recovered = false
	l.bumpGen(th)
}

// bumpGen advances the generation and persists it. The 56-bit counter
// outlasts any device: 2^56 truncations at one per microsecond take two
// millennia.
func (l *Log) bumpGen(th *pmem.Thread) {
	l.gen++
	off := l.hdrOff + hdrGenWord*pmem.WordSize
	th.Store(off, genWord(l.gen))
	th.Flush(off, pmem.WordSize)
}

// Len returns the bytes of records in the log (0 = empty).
func (l *Log) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Scan yields every record in append order until fn returns false. The
// payload slice is freshly allocated per record and owned by fn. Records
// were validated at Open (or written by this process), so Scan trusts
// headers below the append cursor.
func (l *Log) Scan(th *pmem.Thread, fn func(r Rec) bool) {
	l.mu.Lock()
	tail := l.tail
	l.mu.Unlock()
	for it := rec.Walk(th, l.region, l.region+tail, false); it.Next(); {
		r := Rec{ID: it.Meta[0], Kind: Kind(it.Meta[1] & 0xff)}
		r.Payload = rec.AppendPayload(th, nil, it.Off, it.Len)
		if !fn(r) {
			return
		}
	}
}
