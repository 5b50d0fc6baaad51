// Package plog is the one record codec of this repository's two persistent
// logs: the value log (internal/vlog) and the transaction redo log
// (internal/txnlog) write and read their records through it. It owns the
// record layout, the publish rule, validation at an offset and the walk
// over records laid end to end. Space — extents, regions, generations,
// truncation — stays with the logs.
//
// # Record layout
//
//	word 0:     (payload length + 1) in the low 32 bits, CRC-32C of the meta
//	            words (little-endian) followed by the payload in the high 32
//	words 1..k: the log's k meta words (vlog: the owner key; txnlog: the
//	            transaction ID and kind | generation<<8)
//	then:       the payload, packed little-endian into whole words
//
// The +1 keeps an empty record's header nonzero, so a zero header word means
// "no record here": the terminator a walk stops at.
//
// # Publish by flush
//
// There is no tail word. Write stores the payload words, the meta words and
// the header, then flushes the record's lines — one flush call, one fence —
// and the record is published when that Flush returns. A crash before it
// leaves a record some of whose words never reached the media; its CRC
// fails, and a walk drops it whole with every record before it intact. It
// is FAST+FAIR's own discipline (an insert commits with one flushed store
// and no log) applied to a log.
//
// # What a walk may accept
//
// Without a tail, a walk cannot tell the last real record from bytes that
// merely validate behind it: a CRC-clean record an earlier life of the same
// memory left at the same offset, or a record image inside a torn append's
// payload. Each log makes those harmless in its own way.
//
// The redo log replays what its walk accepts, so it must accept nothing
// else: its kind word carries a generation, its header names the current
// one, and its walk keeps only records of that generation.
//
// The value log needs no generation, because a value-log record has effect
// only through a tree word that names it: reads check the owner and length
// the word names, GC decides liveness by the tree and commits by a
// conditional replace, and recovery counts live bytes by a tree walk. Every
// record a tree word names was flushed before the word was installed, and
// real records lie contiguous from an extent's start (or from where the
// previous walk stopped), so the walk passes all of them. Whatever it
// accepts beyond them is garbage nothing names, and the value log's
// accounting and GC already treat it as garbage.
package plog

import (
	"encoding/binary"
	"hash/crc32"
	"slices"

	"repro/internal/pmem"
)

var table = crc32.MakeTable(crc32.Castagnoli)

// Format is one log's record shape: the number of meta words between the
// header word and the payload.
type Format struct{ Meta int }

// Size returns the bytes a record with an n-byte payload occupies.
func (f Format) Size(n int) int64 {
	return int64(1+f.Meta)*pmem.WordSize + roundUp(int64(n), pmem.WordSize)
}

// Lines rounds n up to whole cache lines, the unit both logs carve their
// space in.
func Lines(n int64) int64 { return roundUp(n, pmem.LineSize) }

// RecordCRC hashes the meta words (little-endian) followed by the payload.
// The meta bytes are folded in with the table directly: a temporary byte
// slice would escape into the (assembly-backed) crc32.Update and put one
// heap allocation on the logs' zero-alloc read and append paths.
func RecordCRC(meta []uint64, payload []byte) uint32 {
	crc := ^uint32(0)
	for _, w := range meta {
		for i := 0; i < 8; i++ {
			crc = table[byte(crc)^byte(w>>(8*i))] ^ crc>>8
		}
	}
	// crc32.Update takes and returns finalized values; unfinalize the raw
	// state around the (fast, possibly vectorised) payload pass.
	return crc32.Update(^crc, table, payload)
}

// Header decodes a header word: the payload length it claims (-1 for the
// zero word, no record) and the record's checksum.
func Header(hdr uint64) (n int, crc uint32) { return int(hdr&0xffffffff) - 1, uint32(hdr >> 32) }

// Write stores a record at off — the payload words, the meta words, the
// header last — and publishes it with one Flush of its lines. It returns the
// record's size.
func (f Format) Write(th *pmem.Thread, off int64, meta []uint64, payload []byte) int64 {
	pos := off + int64(1+f.Meta)*pmem.WordSize
	for i := 0; i < len(payload); i, pos = i+8, pos+pmem.WordSize {
		th.Store(pos, packWord(payload[i:]))
	}
	for i, w := range meta {
		th.Store(off+int64(1+i)*pmem.WordSize, w)
	}
	th.Store(off, uint64(len(payload)+1)|uint64(RecordCRC(meta, payload))<<32)
	size := f.Size(len(payload))
	th.Flush(off, size)
	return size
}

// payloadChunk is the words AppendPayload reads per LoadWords call: a
// 512-byte stack buffer, so a read allocates nothing beyond dst's growth.
const payloadChunk = 64

// AppendPayload appends the n-byte payload of the record at off to dst. It
// grows dst once and reads the payload's words in ascending order through
// pmem.Thread.LoadWords, a chunk of up to payloadChunk words per call,
// storing each whole word with one 8-byte store; only a partial tail word
// is split into bytes. The reads count and charge as a per-word Load loop
// over the same words would.
func (f Format) AppendPayload(th *pmem.Thread, dst []byte, off int64, n int) []byte {
	off += int64(1+f.Meta) * pmem.WordSize
	start := len(dst)
	dst = slices.Grow(dst, n)[:start+n]
	b := dst[start:]
	var buf [payloadChunk]uint64
	for i := 0; i < n; {
		words := buf[:min((n-i+7)/8, payloadChunk)]
		th.LoadWords(off+int64(i), words)
		for _, w := range words {
			if i+8 > n {
				for ; i < n; i, w = i+1, w>>8 {
					b[i] = byte(w)
				}
				break
			}
			binary.LittleEndian.PutUint64(b[i:], w)
			i += 8
		}
	}
	return dst
}

// Iter walks records laid end to end up to an end offset. It stops at the
// first offset that does not hold a valid record: no room for a header, a
// header whose record would overrun the end, or, when the walk verifies, a
// checksum mismatch.
type Iter struct {
	Off  int64    // the current record; where the walk stopped once Next is false
	Len  int      // the current record's payload length
	Meta []uint64 // its meta words

	th     *pmem.Thread
	f      Format
	end    int64
	size   int64
	verify bool
	buf    []byte // the current payload, on a verifying walk
}

// Walk starts a walk at start. A verifying walk reads and checksums every
// payload; otherwise it trusts the headers.
func (f Format) Walk(th *pmem.Thread, start, end int64, verify bool) Iter {
	return Iter{Off: start, Meta: make([]uint64, f.Meta), th: th, f: f, end: end, verify: verify}
}

// Next advances to the next record and reports whether there is one.
func (it *Iter) Next() bool {
	it.Off += it.size
	it.size = 0
	if it.Off+pmem.WordSize > it.end {
		return false
	}
	n, crc := Header(it.th.Load(it.Off))
	if n < 0 || it.f.Size(n) > it.end-it.Off {
		return false
	}
	it.th.LoadWords(it.Off+pmem.WordSize, it.Meta)
	if it.verify {
		it.buf = it.f.AppendPayload(it.th, it.buf[:0], it.Off, n)
		if RecordCRC(it.Meta, it.buf) != crc {
			return false
		}
	}
	it.Len, it.size = n, it.f.Size(n)
	return true
}

// Terminated reports whether a finished walk stopped cleanly, at a zero
// header word or with no room left for one, rather than at a record that
// failed validation.
func (it *Iter) Terminated() bool {
	return it.Off+pmem.WordSize > it.end || it.th.Load(it.Off) == 0
}

// packWord packs up to 8 payload bytes into one little-endian word,
// zero-padding the tail.
func packWord(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for i := range b {
		w |= uint64(b[i]) << (8 * i)
	}
	return w
}

func roundUp(v, m int64) int64 { return (v + m - 1) / m * m }
