package txnlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/plog"
	"repro/internal/pmem"
)

const testSlot = 6

// recHdrBytes is a record's fixed overhead: header, ID and kind words.
const recHdrBytes = 3 * pmem.WordSize

// checkRecord validates the record at byte offset off (within the region)
// the way Open's walk does, returning its total size and whether it lies
// inside the region, is CRC-clean and belongs to the current generation.
func (l *Log) checkRecord(th *pmem.Thread, off int64) (int64, bool) {
	it := rec.Walk(th, l.region+off, l.region+l.cap, true)
	if !it.Next() || !l.current(it.Meta[1]) {
		return 0, false
	}
	return RecordSize(it.Len), true
}

func testValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

// collect drains the log into a slice.
func collect(l *Log, th *pmem.Thread) []Rec {
	var out []Rec
	l.Scan(th, func(r Rec) bool {
		out = append(out, r)
		return true
	})
	return out
}

func TestAppendScanTruncate(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 4 << 20})
	th := p.NewThread()
	l, err := Create(p, th, testSlot, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		{},
		[]byte("x"),
		[]byte("eight..."),
		bytes.Repeat([]byte{0xaa}, 100),
	}
	for i, pl := range payloads {
		kind := KindIntent
		if i%2 == 1 {
			kind = KindCommit
		}
		if err := l.Append(th, uint64(100+i), kind, pl); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	recs := collect(l, th)
	if len(recs) != len(payloads) {
		t.Fatalf("got %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.ID != uint64(100+i) || !bytes.Equal(r.Payload, payloads[i]) {
			t.Fatalf("record %d: id=%d payload %d bytes", i, r.ID, len(r.Payload))
		}
	}
	// Early stop.
	seen := 0
	l.Scan(th, func(Rec) bool { seen++; return false })
	if seen != 1 {
		t.Fatalf("early-stop scan saw %d records", seen)
	}
	l.Truncate(th)
	if l.Len() != 0 || len(collect(l, th)) != 0 {
		t.Fatal("truncated log not empty")
	}
	// Reusable after truncation.
	if err := l.Append(th, 7, KindIntent, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if recs := collect(l, th); len(recs) != 1 || string(recs[0].Payload) != "again" {
		t.Fatal("post-truncate append not visible")
	}
}

func TestOpenRecoversPublishedRecords(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 4 << 20})
	th := p.NewThread()
	l, err := Create(p, th, testSlot, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var want [][]byte
	for i := 0; i < 10; i++ {
		v := testValue(rng, rng.Intn(200))
		if err := l.Append(th, uint64(i), KindIntent, v); err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	re, err := Open(p, th, testSlot)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(re, th)
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.ID != uint64(i) || r.Kind != KindIntent || !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d corrupt after reopen", i)
		}
	}
}

func TestSpaceErrors(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 4 << 20})
	th := p.NewThread()
	l, err := Create(p, th, testSlot, pmem.LineSize) // one line: 64 bytes
	if err != nil {
		t.Fatal(err)
	}
	if !l.SpaceFor(8) || l.SpaceFor(1<<10) {
		t.Fatal("SpaceFor disagrees with capacity")
	}
	if err := l.Append(th, 1, KindIntent, make([]byte, 1<<10)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: %v", err)
	}
	// Fill it, then overflow.
	if err := l.Append(th, 1, KindIntent, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(th, 2, KindIntent, make([]byte, 32)); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow append: %v", err)
	}
	l.Truncate(th)
	if err := l.Append(th, 3, KindIntent, make([]byte, 32)); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
}

// crashAppendMatrix injects a crash at every point of an append's persist
// tape under each survivor model. There is no tail to publish: the record
// is on the media exactly when its own lines are, so at every point the
// earlier records are byte-exact and the in-flight record is wholly present
// (CRC-clean, current generation) or dropped whole. A log recovered with
// records refuses appends until it is truncated, and works after.
func crashAppendMatrix(t *testing.T, model pmem.MemModel) {
	rng := rand.New(rand.NewSource(7))
	p := pmem.New(pmem.Config{Size: 4 << 20, TrackCrashes: true, Model: model})
	th := p.NewThread()
	l, err := Create(p, th, testSlot, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// An earlier, longer generation leaves stale bytes under and behind
	// everything this generation writes.
	for i := 0; i < 8; i++ {
		if err := l.Append(th, uint64(500+i), KindIntent, testValue(rng, 90)); err != nil {
			t.Fatal(err)
		}
	}
	l.Truncate(th)
	var comVals [][]byte
	for i := 0; i < 5; i++ {
		v := testValue(rng, 40+i)
		if err := l.Append(th, uint64(i), KindIntent, v); err != nil {
			t.Fatal(err)
		}
		comVals = append(comVals, v)
	}
	p.StartCrashLog()
	inflight := testValue(rng, 100)
	if err := l.Append(th, 999, KindCommit, inflight); err != nil {
		t.Fatal(err)
	}
	tape := p.LogLen()
	if tape == 0 {
		t.Fatal("empty crash tape")
	}
	dropped, kept := 0, 0
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		rl, err := Open(img, ith, testSlot)
		if err != nil {
			t.Fatalf("%v of %d: reopen: %v", cp, tape, err)
		}
		recs := collect(rl, ith)
		if len(recs) != len(comVals) && len(recs) != len(comVals)+1 {
			t.Fatalf("%v: %d records survive", cp, len(recs))
		}
		for i, v := range comVals {
			r := recs[i]
			if r.ID != uint64(i) || r.Kind != KindIntent || !bytes.Equal(r.Payload, v) {
				t.Fatalf("%v: committed record %d lost", cp, i)
			}
		}
		if len(recs) == len(comVals)+1 {
			kept++
			r := recs[len(recs)-1]
			if r.ID != 999 || r.Kind != KindCommit || !bytes.Equal(r.Payload, inflight) {
				t.Fatalf("%v: TORN in-flight record", cp)
			}
		} else {
			dropped++
			if cp.Point == tape && cp.Mode != pmem.CrashRandom {
				// Append returned, so at the full tape the record must
				// be there under any model that keeps persisted lines.
				t.Fatalf("completed append lost at full tape (%v)", cp)
			}
		}
		// Recovered records are replayed and dropped, never extended.
		if err := rl.Append(ith, 31337, KindIntent, []byte("post-crash")); !errors.Is(err, ErrNotTruncated) {
			t.Fatalf("%v: append onto recovered records: %v", cp, err)
		}
		rl.Truncate(ith)
		if err := rl.Append(ith, 31337, KindIntent, []byte("post-crash")); err != nil {
			t.Fatalf("%v: post-recovery append: %v", cp, err)
		}
		// The new generation hides everything the crash left behind,
		// the torn record's bytes included.
		rl2, err := Open(img, ith, testSlot)
		if err != nil {
			t.Fatalf("%v: second reopen: %v", cp, err)
		}
		if post := collect(rl2, ith); len(post) != 1 || string(post[0].Payload) != "post-crash" {
			t.Fatalf("%v: post-recovery log holds %d records", cp, len(post))
		}
	}
	if dropped == 0 || kept == 0 {
		t.Fatalf("matrix degenerated: in-flight record dropped %d times, kept %d", dropped, kept)
	}
}

func TestCrashEveryPointOfAppend(t *testing.T)       { crashAppendMatrix(t, pmem.TSO) }
func TestCrashEveryPointOfAppendNonTSO(t *testing.T) { crashAppendMatrix(t, pmem.NonTSO) }

// crashTruncateMatrix crashes at every point of a Truncate — one store of
// the generation word, one flushed line: the reopened log holds either the
// full pre-truncate record set or nothing, never a suffix, prefix, or torn
// record.
func crashTruncateMatrix(t *testing.T, model pmem.MemModel) {
	rng := rand.New(rand.NewSource(11))
	p := pmem.New(pmem.Config{Size: 4 << 20, TrackCrashes: true, Model: model})
	th := p.NewThread()
	l, err := Create(p, th, testSlot, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	var vals [][]byte
	for i := 0; i < 4; i++ {
		v := testValue(rng, 30*i)
		if err := l.Append(th, uint64(i), KindIntent, v); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	p.StartCrashLog()
	l.Truncate(th)
	tape := p.LogLen()
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		rl, err := Open(img, ith, testSlot)
		if err != nil {
			t.Fatalf("%v of %d: reopen: %v", cp, tape, err)
		}
		recs := collect(rl, ith)
		switch len(recs) {
		case 0: // truncation won
			if cp.Point == 0 {
				t.Fatalf("%v: records gone before the truncation started", cp)
			}
		case len(vals): // truncation lost; records must be intact
			if cp.Point == tape && cp.Mode != pmem.CrashRandom {
				t.Fatalf("%v: completed truncation lost at full tape", cp)
			}
			for i, v := range vals {
				if recs[i].ID != uint64(i) || !bytes.Equal(recs[i].Payload, v) {
					t.Fatalf("%v: record %d torn", cp, i)
				}
			}
		default:
			t.Fatalf("%v: partial truncation, %d of %d records",
				cp, len(recs), len(vals))
		}
	}
}

func TestCrashEveryPointOfTruncate(t *testing.T)       { crashTruncateMatrix(t, pmem.TSO) }
func TestCrashEveryPointOfTruncateNonTSO(t *testing.T) { crashTruncateMatrix(t, pmem.NonTSO) }

// persistedGen reads the generation out of a log's header line.
func persistedGen(t *testing.T, p *pmem.Pool, th *pmem.Thread) uint64 {
	t.Helper()
	gw := th.Load(p.Root(th, testSlot) + hdrGenWord*pmem.WordSize)
	if gw != genWord(gw>>8) {
		t.Fatalf("generation word %#x fails its check bits", gw)
	}
	return gw >> 8
}

// TestStaleGenerationRecordNotYielded builds the hazard the generation
// exists for: a complete, CRC-clean record of generation g-1 lying directly
// behind a shorter generation-g record. With no tail to bound the walk,
// only the generation bound into the record keeps Open from yielding it.
func TestStaleGenerationRecordNotYielded(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 20})
	th := p.NewThread()
	l, err := Create(p, th, testSlot, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Generation g-1: an intent and, right behind it, its commit mark.
	if err := l.Append(th, 41, KindIntent, []byte("old intent, 24 bytes....")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(th, 41, KindCommit, nil); err != nil {
		t.Fatal(err)
	}
	before := persistedGen(t, p, th)
	l.Truncate(th)
	if got := persistedGen(t, p, th); got != before+1 {
		t.Fatalf("Truncate moved the persisted generation %d -> %d, want +1", before, got)
	}
	// Generation g: an intent of the same size and nothing else, as when a
	// crash hits before the new transaction's mark. The old mark still
	// sits, intact, exactly where the walk arrives next.
	if err := l.Append(th, 42, KindIntent, []byte("new intent, 24 bytes....")); err != nil {
		t.Fatal(err)
	}
	n, ok := l.checkRecord(th, l.Len())
	l.gen--
	if _, stale := l.checkRecord(th, l.Len()); ok || !stale {
		t.Fatalf("hazard not built: record behind the tail valid under g: %v (%d bytes), under g-1: %v", ok, n, stale)
	}
	l.gen++
	re, err := Open(p, th, testSlot)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(re, th)
	if len(recs) != 1 || recs[0].ID != 42 || recs[0].Kind != KindIntent {
		t.Fatalf("Open yielded %d records (%+v), want only transaction 42's intent", len(recs), recs)
	}
}

// TestTornFirstRecordStartsNewGeneration: when the crash tears the very
// first record, the recovered log is empty and Truncate would be a no-op —
// yet the torn record's words are on the media under the current
// generation. The image below is the worst case: the torn record's header
// line never reached the media, its second line did, and that line holds a
// byte-exact record image of the current generation (payload bytes are
// arbitrary, so they can). Open must move to a fresh generation, or the
// next, shorter append would be followed by a record nobody appended.
func TestTornFirstRecordStartsNewGeneration(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 20})
	th := p.NewThread()
	l, err := Create(p, th, testSlot, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	gen := persistedGen(t, p, th)
	// The surviving second line of the torn append, as persisted words.
	ghostKind := uint64(KindCommit) | gen<<8
	line2 := l.region + pmem.LineSize
	th.Store(line2+pmem.WordSize, 666)
	th.Store(line2+2*pmem.WordSize, ghostKind)
	th.Store(line2, 1|uint64(plog.RecordCRC([]uint64{666, ghostKind}, nil))<<32)
	th.Flush(line2, recHdrBytes)

	re, err := Open(p, th, testSlot)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 0 {
		t.Fatalf("recovered %d bytes from a log whose first record is torn", re.Len())
	}
	if got := persistedGen(t, p, th); got != gen+1 {
		t.Fatalf("Open left the persisted generation at %d (was %d): torn bytes share it with the next append", got, gen)
	}
	// A record of exactly one line: the walk lands on the ghost next.
	if err := re.Append(th, 7, KindIntent, make([]byte, pmem.LineSize-recHdrBytes)); err != nil {
		t.Fatal(err)
	}
	again, err := Open(p, th, testSlot)
	if err != nil {
		t.Fatal(err)
	}
	if recs := collect(again, th); len(recs) != 1 || recs[0].ID != 7 {
		t.Fatalf("yielded %d records (%+v), want only the appended one", len(recs), recs)
	}
}

// TestOpenRejectsCorruptImages damages header fields and a record body and
// asserts fail-closed behaviour: a bad magic, a foreign format version, a
// region or generation word that fails its check, or a region outside the
// pool all error; a corrupted record body silently shrinks the log instead
// of yielding garbage records.
func TestOpenRejectsCorruptImages(t *testing.T) {
	build := func() (*pmem.Pool, *pmem.Thread, *Log) {
		p := pmem.New(pmem.Config{Size: 1 << 20})
		th := p.NewThread()
		l, err := Create(p, th, testSlot, 8<<10)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := l.Append(th, uint64(i), KindIntent, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return p, th, l
	}
	word := func(p *pmem.Pool, th *pmem.Thread, w int64) int64 { return p.Root(th, testSlot) + w*pmem.WordSize }

	p, th, l := build()
	th.Store(word(p, th, hdrMagicWord), 0xdeadbeef)
	if _, err := Open(p, th, testSlot); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}

	// A version-1 image (persisted tail word, no generation) is refused by
	// name, not misread.
	p, th, l = build()
	th.Store(word(p, th, hdrMagicWord), logMagic<<32|1)
	if _, err := Open(p, th, testSlot); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 1 image: %v", err)
	}

	// A moved region fails the header check word ...
	p, th, l = build()
	th.Store(word(p, th, hdrRegionWord), uint64(l.region+pmem.LineSize))
	if _, err := Open(p, th, testSlot); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("moved region: %v", err)
	}
	// ... and a region outside the pool fails even with a matching one.
	p, th, l = build()
	th.Store(word(p, th, hdrRegionWord), uint64(p.Size()))
	th.Store(word(p, th, hdrCheckWord), ^(th.Load(word(p, th, hdrMagicWord)) ^ uint64(p.Size()) ^ uint64(l.cap)))
	if _, err := Open(p, th, testSlot); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wild region: %v", err)
	}

	// A generation word that fails its check bits: refusing beats guessing
	// which generation's records to replay.
	p, th, l = build()
	th.Store(word(p, th, hdrGenWord), th.Load(word(p, th, hdrGenWord))^1<<8)
	if _, err := Open(p, th, testSlot); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged generation word: %v", err)
	}

	// Flip a payload byte of the middle record: the walk stops there,
	// keeping only the first record.
	p, th, l = build()
	mid := l.region + RecordSize(2) + recHdrBytes
	th.Store(mid, th.Load(mid)^0xff)
	re, err := Open(p, th, testSlot)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(re, th)); got != 1 {
		t.Fatalf("corrupt middle record: %d records survive, want 1", got)
	}
}

// TestBitFlipsFailClosed flips, one at a time, every bit of the header line
// and of one record in a crash image whose region runs to the last byte of
// the pool. Open must never panic or read past the region, must either
// refuse the image or yield a prefix of the original records byte-exact,
// and must never yield the damaged record.
func TestBitFlipsFailClosed(t *testing.T) {
	const size = 8 << 10
	p := pmem.New(pmem.Config{Size: size, TrackCrashes: true})
	th := p.NewThread()
	// Header line and region are the pool's first two allocations, so this
	// capacity puts the region's end on the pool's end: a walk that ran
	// past the capacity would index out of the arena and panic.
	l, err := Create(p, th, testSlot, p.FreeBytes()-hdrBytes)
	if err != nil {
		t.Fatal(err)
	}
	if l.region+l.cap != p.Size() {
		t.Fatalf("region [%d,+%d) does not end at the pool's end %d", l.region, l.cap, p.Size())
	}
	p.StartCrashLog()
	rng := rand.New(rand.NewSource(5))
	want := []Rec{
		{ID: 1, Kind: KindIntent, Payload: testValue(rng, 70)},
		{ID: 1, Kind: KindIntent, Payload: testValue(rng, 45)},
		{ID: 1, Kind: KindCommit},
	}
	for _, r := range want {
		if err := l.Append(th, r.ID, r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	img := p.CrashImage(p.LogLen(), pmem.CrashNone, nil)

	// open reopens a damaged copy and checks what every flip must satisfy.
	open := func(tag string, off int64, bit uint) (n int, err error) {
		t.Helper()
		c := img.Clone(false)
		cth := c.NewThread()
		cth.Store(off, cth.Load(off)^1<<bit)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Open panicked: %v", tag, r)
			}
		}()
		rl, err := Open(c, cth, testSlot)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("%s: unexpected error class: %v", tag, err)
			}
			return 0, err
		}
		got := collect(rl, cth)
		if len(got) > len(want) {
			t.Fatalf("%s: %d records out of a log of %d", tag, len(got), len(want))
		}
		for i, r := range got {
			if r.ID != want[i].ID || r.Kind != want[i].Kind || !bytes.Equal(r.Payload, want[i].Payload) {
				t.Fatalf("%s: record %d yielded damaged: %+v", tag, i, r)
			}
		}
		return len(got), nil
	}

	hdr := img.Root(img.NewThread(), testSlot)
	for w := int64(0); w < pmem.WordsPerLine; w++ {
		for bit := uint(0); bit < 64; bit++ {
			tag := fmt.Sprintf("header word %d bit %d", w, bit)
			n, err := open(tag, hdr+w*pmem.WordSize, bit)
			switch {
			case w > hdrCheckWord: // unused words
				if err != nil || n != len(want) {
					t.Fatalf("%s: %d records, err %v; the word is unused", tag, n, err)
				}
			case err == nil:
				t.Fatalf("%s: damaged header opened (%d records)", tag, n)
			}
		}
	}
	// The middle record: header, ID, kind word, payload. Only the padding
	// behind a payload's last byte is outside the checksum.
	first, mid := RecordSize(len(want[0].Payload)), RecordSize(len(want[1].Payload))
	covered := int64(recHdrBytes + len(want[1].Payload))
	for b := int64(0); b < mid; b++ {
		for bit := uint(0); bit < 8; bit++ {
			tag := fmt.Sprintf("record 1 byte %d bit %d", b, bit)
			off := l.region + first + b/pmem.WordSize*pmem.WordSize
			n, err := open(tag, off, uint(b%pmem.WordSize)*8+bit)
			if err != nil {
				t.Fatalf("%s: a damaged record must be discarded, not fail Open: %v", tag, err)
			}
			if b < covered && n != 1 {
				t.Fatalf("%s: %d records survive, want 1 (the undamaged first)", tag, n)
			}
		}
	}
}
