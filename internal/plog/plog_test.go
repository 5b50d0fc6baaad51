package plog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/pmem"
)

// TestRecordImage pins the record bytes both logs have always written: the
// header word is len+1 in the low half and, in the high half, the CRC-32C
// of the meta words (little-endian) followed by the payload; then the meta
// words; then the payload packed little-endian into zero-padded words. One
// Write is one flush call of exactly the record's lines.
func TestRecordImage(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 16})
	th := p.NewThread()
	f := Format{Meta: 2}
	meta := []uint64{0x1122334455667788, 0x2a<<8 | 2}
	payload := []byte("eleven byte")
	const off = 5 * pmem.LineSize
	if size := f.Write(th, off, meta, payload); size != 3*8+16 {
		t.Fatalf("Write returned size %d, want 40", size)
	}
	if th.Stats.FlushCalls != 1 || th.Stats.FlushedLines != 1 {
		t.Fatalf("Write flushed %d lines in %d calls, want 1 in 1", th.Stats.FlushedLines, th.Stats.FlushCalls)
	}
	var img []byte
	for _, w := range meta {
		img = binary.LittleEndian.AppendUint64(img, w)
	}
	img = append(img, payload...)
	crc := crc32.Checksum(img, crc32.MakeTable(crc32.Castagnoli))
	want := []uint64{uint64(len(payload)+1) | uint64(crc)<<32, meta[0], meta[1],
		binary.LittleEndian.Uint64([]byte("eleven b")), binary.LittleEndian.Uint64([]byte("yte\x00\x00\x00\x00\x00"))}
	for i, w := range want {
		if got := th.Load(off + int64(i)*pmem.WordSize); got != w {
			t.Errorf("word %d = %#x, want %#x", i, got, w)
		}
	}
	if got := f.AppendPayload(th, []byte("x"), off, len(payload)); !bytes.Equal(got, append([]byte("x"), payload...)) {
		t.Fatalf("AppendPayload = %q", got)
	}
}

// TestWalkStops: a walk yields records laid end to end and stops at a zero
// header (clean), at a record that would overrun the end, or — verifying —
// at a checksum mismatch (not clean). A header-only walk passes a record
// whose payload is damaged.
func TestWalkStops(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 16})
	th := p.NewThread()
	f := Format{Meta: 1}
	const start = pmem.LineSize
	pos := int64(start)
	for i, n := range []int{0, 7, 64} {
		pos += f.Write(th, pos, []uint64{uint64(i)}, bytes.Repeat([]byte{byte(i)}, n))
	}
	walk := func(end int64, verify bool) (n int, it Iter) {
		it = f.Walk(th, start, end, verify)
		for ; it.Next(); n++ {
			if it.Meta[0] != uint64(n) {
				t.Fatalf("record %d carries meta %d", n, it.Meta[0])
			}
		}
		return n, it
	}
	if n, it := walk(pos+pmem.LineSize, true); n != 3 || it.Off != pos || !it.Terminated() {
		t.Fatalf("clean walk: %d records, stop %d (want 3, %d), terminated %v", n, it.Off, pos, it.Terminated())
	}
	second, third := start+f.Size(0), start+f.Size(0)+f.Size(7)
	if n, it := walk(pos-8, true); n != 2 || it.Off != third || it.Terminated() {
		t.Fatalf("overrun walk: %d records, stop %d, terminated %v; want 2, %d, false", n, it.Off, it.Terminated(), third)
	}
	th.Store(second+2*pmem.WordSize, th.Load(second+2*pmem.WordSize)^1)
	if n, it := walk(pos+pmem.LineSize, true); n != 1 || it.Off != second || it.Terminated() {
		t.Fatalf("damaged walk: %d records, stop %d, terminated %v; want 1, %d, false", n, it.Off, it.Terminated(), second)
	}
	if n, _ := walk(pos+pmem.LineSize, false); n != 3 {
		t.Fatalf("header-only walk: %d records, want 3", n)
	}
}

// TestPayloadRoundTrip writes payloads of every length from 0 to 72 bytes,
// each starting mid-line so its words straddle lines, and reads each back
// through AppendPayload onto a non-empty dst. On a pool that charges reads,
// reading a record's header, meta words and payload costs exactly what a
// plain ascending word loop over the same words costs: 1+Meta+⌈n/8⌉ loads
// and the same charged lines.
func TestPayloadRoundTrip(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 16, ReadLatency: time.Nanosecond})
	w := p.NewThread()
	f := Format{Meta: 1}
	prefix := []byte("dst:")
	for n := 0; n <= 72; n++ {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(n*31 + i*7 + 1)
		}
		off := int64(2*n+1)*pmem.LineSize + 3*pmem.WordSize
		f.Write(w, off, []uint64{uint64(n)}, payload)
		words := int64(1+f.Meta) + int64(n+7)/8

		ref := p.NewThread()
		for i := range words {
			ref.Load(off + i*pmem.WordSize)
		}
		th := p.NewThread()
		hdr, meta := th.Load(off), th.Load(off+pmem.WordSize)
		got := f.AppendPayload(th, append([]byte(nil), prefix...), off, n)

		if !bytes.Equal(got, append(append([]byte(nil), prefix...), payload...)) {
			t.Fatalf("n=%d: AppendPayload = %q", n, got)
		}
		if hn, crc := Header(hdr); hn != n || crc != RecordCRC([]uint64{meta}, got[len(prefix):]) {
			t.Fatalf("n=%d: header claims %d bytes, checksum %#x", n, hn, crc)
		}
		if th.Stats.Loads != uint64(words) || th.Stats.Loads != ref.Stats.Loads {
			t.Errorf("n=%d: %d loads, want %d (word loop %d)", n, th.Stats.Loads, words, ref.Stats.Loads)
		}
		if th.Stats.ChargedReads == 0 || th.Stats.ChargedReads != ref.Stats.ChargedReads {
			t.Errorf("n=%d: %d charged reads, word loop %d", n, th.Stats.ChargedReads, ref.Stats.ChargedReads)
		}
	}
}

// TestPayloadRoundTripUncharged is TestPayloadRoundTrip on a device that
// charges no reads, where pmem.Thread.LoadWords skips the latency model:
// the same bytes back for every length from 0 to 72 (and for payloads
// longer than one LoadWords chunk), the same 1+Meta+⌈n/8⌉ loads, and no
// charged read.
func TestPayloadRoundTripUncharged(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 16})
	th := p.NewThread()
	f := Format{Meta: 1}
	prefix := []byte("dst:")
	off := int64(pmem.LineSize + 3*pmem.WordSize)
	lengths := []int{8*payloadChunk - 1, 8 * payloadChunk, 8*payloadChunk + 9, 3*8*payloadChunk + 5}
	for n := 0; n <= 72; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(n*31 + i*7 + 1)
		}
		f.Write(th, off, []uint64{uint64(n)}, payload)
		before := th.Stats.Loads
		th.Load(off)
		th.Load(off + pmem.WordSize)
		got := f.AppendPayload(th, append([]byte(nil), prefix...), off, n)
		if !bytes.Equal(got, append(append([]byte(nil), prefix...), payload...)) {
			t.Fatalf("n=%d: AppendPayload = %q", n, got)
		}
		if loads, want := th.Stats.Loads-before, uint64(1+f.Meta+(n+7)/8); loads != want {
			t.Errorf("n=%d: %d loads, want %d", n, loads, want)
		}
		off += f.Size(n) + pmem.WordSize
	}
	if th.Stats.ChargedReads != 0 {
		t.Errorf("%d charged reads on an uncharged device", th.Stats.ChargedReads)
	}
}
