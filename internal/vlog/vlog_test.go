package vlog

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/pmem"
)

func newPool(tb testing.TB, size int64, track bool) (*pmem.Pool, *pmem.Thread) {
	tb.Helper()
	p := pmem.New(pmem.Config{Size: size, TrackCrashes: track})
	return p, p.NewThread()
}

func testValue(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func TestAppendReadRoundTrip(t *testing.T) {
	p, th := newPool(t, 8<<20, false)
	l, err := Create(p, th, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Sizes straddle every interesting boundary: empty, sub-word, exact
	// word, line, and multi-extent.
	sizes := []int{0, 1, 7, 8, 9, 63, 64, 65, 100, 4000, 5000, 20000}
	vals := make([][]byte, len(sizes))
	refs := make([]Ref, len(sizes))
	for i, n := range sizes {
		vals[i] = testValue(rng, n)
		refs[i], err = l.Append(th, uint64(i+1), vals[i])
		if err != nil {
			t.Fatalf("append %d bytes: %v", n, err)
		}
		if refs[i].Len() != n {
			t.Fatalf("ref length %d, want %d", refs[i].Len(), n)
		}
	}
	for i, ref := range refs {
		got, err := l.Read(th, ref, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, vals[i]) {
			t.Fatalf("read %d: got %d bytes, want %d", i, len(got), len(vals[i]))
		}
	}
	st, err := l.Check(th)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != len(sizes) {
		t.Fatalf("Check records %d, want %d", st.Records, len(sizes))
	}
}

func TestReadAppendsToDst(t *testing.T) {
	p, th := newPool(t, 4<<20, false)
	l, err := Create(p, th, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := l.Append(th, 1, []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Read(th, ref, []byte("hello "))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
}

func TestBadRefs(t *testing.T) {
	p, th := newPool(t, 1<<20, false)
	l, err := Create(p, th, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := l.Append(th, 7, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ref  Ref
	}{
		{"zero", 0},
		{"fixed-width value", Ref(42)},
		{"misaligned", MakeRef(ref.Off()+1, ref.Len())},
		{"wrong length", MakeRef(ref.Off(), ref.Len()+1)},
		{"out of bounds", MakeRef(p.Size(), 8)},
		{"huge length", Ref(uint64(ref) | uint64(MaxValue)<<40)},
	}
	for _, tc := range cases {
		if _, err := l.Read(th, tc.ref, nil); !errors.Is(err, ErrBadRef) {
			t.Errorf("%s: err = %v, want ErrBadRef", tc.name, err)
		}
	}
	if _, err := l.Append(th, 8, make([]byte, MaxValue+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized append: err = %v, want ErrTooLarge", err)
	}
}

// TestPrefetchStaysInArena: Prefetch ignores every ref that does not fit
// the arena, hints a record that ends on the arena's last line without
// reaching past it, and reads and charges nothing either way.
func TestPrefetchStaysInArena(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 16, ReadLatency: time.Nanosecond})
	th := p.NewThread()
	l, err := Create(p, th, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("z"), 100)
	last := MakeRef(p.Size()-rec.Size(len(val)), len(val))
	rec.Write(th, last.Off(), []uint64{9}, val)
	th.Stats = pmem.Stats{}
	for _, ref := range []Ref{
		last,
		0,
		Ref(42),
		MakeRef(last.Off()+1, last.Len()),
		MakeRef(last.Off(), last.Len()+1),
		MakeRef(p.Size(), 8),
		MakeRef(p.Size()+pmem.LineSize, 0),
		Ref(uint64(last) | uint64(MaxValue)<<40),
	} {
		l.Prefetch(th, ref)
	}
	if th.Stats != (pmem.Stats{}) {
		t.Errorf("Prefetch changed Stats: %+v", th.Stats)
	}
	if got, err := l.ReadKeyed(th, 9, last, nil); err != nil || !bytes.Equal(got, val) {
		t.Fatalf("record on the last line: %q, %v", got, err)
	}
}

func TestOversizedValueGetsOwnExtent(t *testing.T) {
	p, th := newPool(t, 8<<20, false)
	l, err := Create(p, th, 5, 512)
	if err != nil {
		t.Fatal(err)
	}
	big := testValue(rand.New(rand.NewSource(2)), 100_000)
	ref, err := l.Append(th, 9, big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Read(th, ref, nil)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big read: %v, %d bytes", err, len(got))
	}
	// The log keeps working in regular extents afterwards.
	small, err := l.Append(th, 10, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.Read(th, small, nil); err != nil || string(got) != "after" {
		t.Fatalf("small after big: %v %q", err, got)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p, th := newPool(t, 64<<10, false)
	l, err := Create(p, th, 5, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 100; i++ {
		if _, lastErr = l.Append(th, uint64(i+1), make([]byte, 4<<10)); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", lastErr)
	}
}

// TestReopenCleanImage closes the loop without a crash: records written,
// image reopened, every record still readable through its old Ref.
func TestReopenCleanImage(t *testing.T) {
	p, th := newPool(t, 8<<20, false)
	l, err := Create(p, th, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var refs []Ref
	var vals [][]byte
	for i := 0; i < 200; i++ {
		v := testValue(rng, rng.Intn(300))
		ref, err := l.Append(th, uint64(i+1), v)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
		vals = append(vals, v)
	}
	re, err := Open(p, th, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		got, err := re.Read(th, ref, nil)
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("record %d after reopen: %v", i, err)
		}
	}
	// And it accepts new appends.
	ref, err := re.Append(th, 999, []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := re.Read(th, ref, nil); err != nil || string(got) != "fresh" {
		t.Fatalf("fresh append after reopen: %v %q", err, got)
	}
}

// TestConcurrentReadersOneAppender exercises the lock-free read contract:
// published records stay readable, byte-exact, while an appender keeps
// publishing new ones (and growing extents) on another goroutine.
func TestConcurrentReadersOneAppender(t *testing.T) {
	p, _ := newPool(t, 32<<20, false)
	wth := p.NewThread()
	l, err := Create(p, wth, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	const nVals = 500
	rng := rand.New(rand.NewSource(4))
	vals := make([][]byte, nVals)
	for i := range vals {
		vals[i] = testValue(rng, 16+rng.Intn(200))
	}
	refCh := make(chan Ref, nVals)
	go func() {
		for i, v := range vals {
			ref, err := l.Append(wth, uint64(i+1), v)
			if err != nil {
				break
			}
			refCh <- ref
		}
		close(refCh)
	}()
	done := make(chan error, 4)
	var refs []Ref
	for ref := range refCh {
		refs = append(refs, ref)
		if len(refs)%100 == 0 {
			snapshot := append([]Ref(nil), refs...)
			go func() {
				rth := p.NewThread()
				var buf []byte
				for i, ref := range snapshot {
					var err error
					buf, err = l.Read(rth, ref, buf[:0])
					if err != nil {
						done <- err
						return
					}
					if !bytes.Equal(buf, vals[i]) {
						done <- errors.New("value mismatch under concurrency")
						return
					}
				}
				done <- nil
			}()
		}
	}
	for i := 0; i < nVals/100; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenFailsClosedOnDamagedSealedExtent flips one payload bit of a record
// in the first of several sealed extents. Growth sealed that extent with a
// flushed terminator before linking the next, so no crash can leave a bad
// record ahead of it: it is damage, and Open refuses the image instead of
// resuming appends inside the damaged extent, where they would run on into
// the next extent's live records. A header stamped with another format
// version is refused by name.
func TestOpenFailsClosedOnDamagedSealedExtent(t *testing.T) {
	p, th := newPool(t, 1<<20, false)
	l, err := Create(p, th, 5, 512)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var refs []Ref
	for k := uint64(1); k <= 20; k++ { // 56-byte records, eight to an extent
		ref, err := l.Append(th, k, testValue(rng, 40))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	if st, err := l.Check(th); err != nil || st.Extents < 3 {
		t.Fatalf("setup: %+v, %v; want three extents", st, err)
	}
	e1, e2 := l.first, int64(th.Load(l.first))
	damaged := refs[1].Off() + 2*pmem.WordSize
	th.Store(damaged, th.Load(damaged)^1<<7)
	th.Flush(damaged, pmem.WordSize)

	rl, err := Open(p, th, 5)
	if err == nil {
		// Appends resume inside the damaged extent and, once it fills, in
		// the next one, over its live records.
		for i := 0; i < 40; i++ {
			if _, err := rl.Append(th, uint64(1000+i), testValue(rng, 40)); err != nil {
				t.Fatal(err)
			}
		}
		for i, ref := range refs {
			if ref.Off() > e2 && ref.Off() < e2+512 {
				if _, err := rl.ReadKeyed(th, uint64(i+1), ref, nil); err != nil {
					t.Fatalf("Open accepted a damaged sealed extent, and appends then destroyed a record of the next one: %v", err)
				}
			}
		}
		t.Fatal("Open accepted a damaged sealed extent")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged sealed extent %d: err = %v, want ErrCorrupt", e1, err)
	}

	// A version-2 image (records published through a tail word) is refused
	// by name, not misread.
	p, th = newPool(t, 1<<20, false)
	if _, err := Create(p, th, 5, 512); err != nil {
		t.Fatal(err)
	}
	hdr := p.Root(th, 5)
	th.Store(hdr, logMagic<<32|2)
	if _, err := Open(p, th, 5); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 2 image: err = %v, want ErrVersion", err)
	}
}
