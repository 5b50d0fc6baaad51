package pmem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func newTestPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.Size == 0 {
		cfg.Size = 1 << 20
	}
	return New(cfg)
}

func TestAllocBasics(t *testing.T) {
	p := newTestPool(t, Config{})
	a, err := p.Alloc(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 {
		t.Fatal("Alloc returned NULL offset")
	}
	if a%64 != 0 {
		t.Fatalf("Alloc(64,64) returned unaligned offset %d", a)
	}
	b, err := p.Alloc(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b == a {
		t.Fatal("overlapping allocations")
	}
	th := p.NewThread()
	th.Store(a, 42)
	if got := th.Load(a); got != 42 {
		t.Fatalf("Load after Store = %d, want 42", got)
	}
	if got := th.Load(b); got != 0 {
		t.Fatalf("fresh allocation not zeroed: %d", got)
	}
}

func TestAllocErrors(t *testing.T) {
	p := New(Config{Size: 4096})
	if _, err := p.Alloc(0, 8); err != ErrBadSize {
		t.Errorf("Alloc(0) err = %v, want ErrBadSize", err)
	}
	if _, err := p.Alloc(8, 3); err != ErrBadSize {
		t.Errorf("Alloc(align=3) err = %v, want ErrBadSize", err)
	}
	if _, err := p.Alloc(1<<30, 8); err != ErrOutOfMemory {
		t.Errorf("huge Alloc err = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocFreeReuseIsZeroed(t *testing.T) {
	p := New(Config{Size: 4096})
	th := p.NewThread()
	a, err := p.Alloc(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	th.Store(a, 0xdead)
	p.Free(a, 64)
	b, err := p.Alloc(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("free list not reused: got %d want %d", b, a)
	}
	if got := th.Load(b); got != 0 {
		t.Fatalf("reused block not zeroed: %#x", got)
	}
}

// TestAllocZeroedFromBothSources: Alloc zeroes only what comes off a free
// list; a block cut from the arena is zero because nothing was ever stored
// beyond the bump pointer. That has to hold on every pool a caller can get —
// a fresh one, a clone and a crash image, which both re-seat the bump pointer
// at the source's high-water mark, above blocks that are full of data and
// whose free lists are gone. A clone or image copies only the words below
// that mark, so it must equal the source there and be zero above it — the
// image too, though every block was allocated after StartCrashLog, above the
// snapshot the log started from. (SetAllocCheck is on for this package.)
func TestAllocZeroedFromBothSources(t *testing.T) {
	dirty := func(p *Pool) {
		// Fill the arena's allocated part with non-zero words, free some of
		// it, and leave some live: the high-water mark sits above all of it.
		th := p.NewThread()
		var blocks []int64
		for _, size := range []int64{8, 64, 512, 8, 64, 512} {
			off, err := p.Alloc(size, 8)
			if err != nil {
				t.Fatal(err)
			}
			for w := int64(0); w < size; w += WordSize {
				th.Store(off+w, 0xa5a5a5a5a5a5a5a5)
			}
			th.Flush(off, size)
			blocks = append(blocks, off)
		}
		p.Free(blocks[0], 8)
		p.Free(blocks[1], 64)
		p.Free(blocks[2], 512)
	}
	requireZeroed := func(t *testing.T, p *Pool, wantRecycled uint64) {
		t.Helper()
		th := p.NewThread()
		before := p.TotalStats().RecycledBlocks
		for round := 0; round < 2; round++ { // free list first (if any), then the arena
			for _, size := range []int64{8, 64, 512} {
				off, err := p.Alloc(size, 8)
				if err != nil {
					t.Fatal(err)
				}
				for w := int64(0); w < size; w += WordSize {
					if got := th.Load(off + w); got != 0 {
						t.Fatalf("round %d: Alloc(%d) at %d: word %d = %#x, want 0", round, size, off, w/WordSize, got)
					}
				}
			}
		}
		if got := p.TotalStats().RecycledBlocks - before; got != wantRecycled {
			t.Fatalf("%d blocks came off a free list, want %d", got, wantRecycled)
		}
	}
	requireCopy := func(t *testing.T, src, c *Pool) {
		t.Helper()
		if c.Size() != src.Size() {
			t.Fatalf("copy holds %d bytes, source %d", c.Size(), src.Size())
		}
		hw := src.alloc.highWater()
		for off := int64(0); off < c.Size(); off += WordSize {
			want := uint64(0)
			if off < hw {
				want = src.rawLoad(off)
			}
			if got := c.rawLoad(off); got != want {
				t.Fatalf("word at %d (high water %d) = %#x, want %#x", off, hw, got, want)
			}
		}
	}
	t.Run("Fresh", func(t *testing.T) {
		p := New(Config{Size: 1 << 16})
		dirty(p)
		requireZeroed(t, p, 3)
	})
	t.Run("Clone", func(t *testing.T) {
		p := New(Config{Size: 1 << 16})
		dirty(p)
		c := p.Clone(false)
		requireCopy(t, p, c)
		requireZeroed(t, c, 0)
	})
	t.Run("CrashImage", func(t *testing.T) {
		p := New(Config{Size: 1 << 16, TrackCrashes: true})
		p.StartCrashLog()
		dirty(p)
		for _, mode := range []CrashMode{CrashNone, CrashAll} { // every store was flushed
			img := p.CrashImage(p.LogLen(), mode, nil)
			requireCopy(t, p, img)
			requireZeroed(t, img, 0)
		}
	})
}

func TestAllocNoOverlapQuick(t *testing.T) {
	p := New(Config{Size: 1 << 22})
	type block struct{ off, size int64 }
	var blocks []block
	f := func(szSeed uint16) bool {
		size := int64(szSeed%512 + 8)
		off, err := p.Alloc(size, 8)
		if err != nil {
			return true // pool exhausted is fine
		}
		for _, b := range blocks {
			if off < b.off+b.size && b.off < off+size {
				t.Logf("overlap: [%d,%d) with [%d,%d)", off, off+size, b.off, b.off+b.size)
				return false
			}
		}
		blocks = append(blocks, block{off, size})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRootSlots(t *testing.T) {
	p := newTestPool(t, Config{})
	th := p.NewThread()
	p.SetRoot(th, 0, 12345)
	p.SetRoot(th, 7, 999)
	if got := p.Root(th, 0); got != 12345 {
		t.Errorf("Root(0) = %d", got)
	}
	if got := p.Root(th, 7); got != 999 {
		t.Errorf("Root(7) = %d", got)
	}
}

func TestStatsCounting(t *testing.T) {
	p := newTestPool(t, Config{})
	th := p.NewThread()
	off, _ := p.Alloc(128, 64)
	th.Store(off, 1)
	th.Store(off+8, 2)
	th.Load(off)
	th.Flush(off, 128) // two lines
	if th.Stats.Stores != 2 {
		t.Errorf("Stores = %d, want 2", th.Stats.Stores)
	}
	if th.Stats.Loads != 1 {
		t.Errorf("Loads = %d, want 1", th.Stats.Loads)
	}
	if th.Stats.FlushedLines != 2 {
		t.Errorf("FlushedLines = %d, want 2", th.Stats.FlushedLines)
	}
	if th.Stats.FlushCalls != 1 {
		t.Errorf("FlushCalls = %d, want 1", th.Stats.FlushCalls)
	}
	th.Release()
	if got := p.TotalStats().Stores; got != 2 {
		t.Errorf("TotalStats.Stores = %d, want 2", got)
	}
	if th.Stats.Stores != 0 {
		t.Error("Release did not reset thread stats")
	}
}

func TestStoreFenceOnlyOnNonTSO(t *testing.T) {
	tso := newTestPool(t, Config{Model: TSO})
	th := tso.NewThread()
	th.StoreFence()
	if th.Stats.StoreFences != 0 {
		t.Errorf("TSO StoreFence counted: %d", th.Stats.StoreFences)
	}
	arm := newTestPool(t, Config{Model: NonTSO})
	th2 := arm.NewThread()
	th2.StoreFence()
	if th2.Stats.StoreFences != 1 {
		t.Errorf("NonTSO StoreFences = %d, want 1", th2.Stats.StoreFences)
	}
}

func TestLatencyCharging(t *testing.T) {
	p := newTestPool(t, Config{ReadLatency: 50 * time.Microsecond})
	th := p.NewThread()
	off, _ := p.Alloc(4096, 64)

	// Sequential scan: only the first line should be charged.
	th.Stats = Stats{}
	for i := int64(0); i < 4096; i += 8 {
		th.Load(off + i)
	}
	if th.Stats.ChargedReads != 1 {
		t.Errorf("sequential scan ChargedReads = %d, want 1", th.Stats.ChargedReads)
	}

	// Random pointer-chasing across a large area: most accesses charged.
	big, _ := p.Alloc(512*1024, 64)
	th.resetCache()
	th.Stats = Stats{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		ln := int64(rng.Intn(512*1024/64))*64 + big
		th.Load(ln)
		th.Load(ln + 1024) // jump away so "next line" prefetch never helps
	}
	if th.Stats.ChargedReads < 64 {
		t.Errorf("random chase ChargedReads = %d, want >= 64", th.Stats.ChargedReads)
	}

	// Repeated access to a hot line is cached after first touch.
	th.resetCache()
	th.Stats = Stats{}
	for i := 0; i < 100; i++ {
		th.Load(off)
		th.Load(big) // alternate two resident lines
	}
	if th.Stats.ChargedReads > 4 {
		t.Errorf("hot lines ChargedReads = %d, want <= 4", th.Stats.ChargedReads)
	}
}

// TestColdThreadChargesFirstRead: a fresh thread has touched no line, so
// its first load is charged on line 0 and on line 1 alike — neither is "the
// next line" after one it has read.
func TestColdThreadChargesFirstRead(t *testing.T) {
	p := newTestPool(t, Config{ReadLatency: time.Nanosecond})
	for _, line := range []int64{0, 1} {
		th := p.NewThread()
		th.Load(line * LineSize)
		if th.Stats.ChargedReads != 1 {
			t.Errorf("a fresh thread's first load of line %d charged %d reads, want 1", line, th.Stats.ChargedReads)
		}
	}
}

func TestLoadLine(t *testing.T) {
	p := newTestPool(t, Config{})
	th := p.NewThread()
	off, _ := p.Alloc(128, 64)
	for i := int64(0); i < 16; i++ {
		th.Store(off+i*8, uint64(100+i))
	}
	var ln [WordsPerLine]uint64
	th.LoadLine(off, &ln)
	for i, got := range ln {
		if want := uint64(100 + i); got != want {
			t.Errorf("LoadLine word %d = %d, want %d", i, got, want)
		}
	}
	// An unaligned offset loads the line containing it.
	var ln2 [WordsPerLine]uint64
	th.LoadLine(off+64+24, &ln2)
	for i, got := range ln2 {
		if want := uint64(108 + i); got != want {
			t.Errorf("LoadLine(+24) word %d = %d, want %d", i, got, want)
		}
	}
	var rev [WordsPerLine]uint64
	th.LoadLineRev(off, &rev)
	if rev != ln {
		t.Errorf("LoadLineRev = %v, want %v", rev, ln)
	}
}

// TestPrefetchIsUncounted: a prefetch is no read in the accounting — no
// load, no charged read — and leaves the latency model's cache alone, so
// the line it hinted is still charged when it is read.
func TestPrefetchIsUncounted(t *testing.T) {
	p := newTestPool(t, Config{ReadLatency: time.Microsecond})
	th := p.NewThread()
	off, _ := p.Alloc(1<<16, 64)
	big := off + 32768
	th.resetCache()
	th.Stats = Stats{}
	th.Prefetch(big, 8)
	if th.Stats != (Stats{}) {
		t.Errorf("Prefetch changed Stats: %+v", th.Stats)
	}
	var ln [WordsPerLine]uint64
	th.LoadLine(big, &ln)
	if th.Stats.ChargedReads != 1 || th.Stats.Loads != WordsPerLine {
		t.Errorf("LoadLine after Prefetch: ChargedReads = %d, Loads = %d, want 1, %d",
			th.Stats.ChargedReads, th.Stats.Loads, WordsPerLine)
	}
}

func TestLoadLineAccounting(t *testing.T) {
	p := newTestPool(t, Config{ReadLatency: 50 * time.Microsecond})
	th := p.NewThread()
	off, _ := p.Alloc(1<<16, 64)

	// One LoadLine = 8 word loads, one charged line (cold).
	big := off + 32768 // far from anything touched so the line is cold
	th.resetCache()
	th.Stats = Stats{}
	var ln [WordsPerLine]uint64
	th.LoadLine(big, &ln)
	if th.Stats.Loads != WordsPerLine {
		t.Errorf("Loads = %d, want %d", th.Stats.Loads, WordsPerLine)
	}
	if th.Stats.ChargedReads != 1 {
		t.Errorf("ChargedReads = %d, want 1", th.Stats.ChargedReads)
	}

	// Re-reading the same line (any direction) charges nothing further.
	th.LoadLine(big, &ln)
	th.LoadLineRev(big, &ln)
	if th.Stats.ChargedReads != 1 {
		t.Errorf("hot-line ChargedReads = %d, want 1", th.Stats.ChargedReads)
	}
	if th.Stats.Loads != 3*WordsPerLine {
		t.Errorf("Loads = %d, want %d", th.Stats.Loads, 3*WordsPerLine)
	}

	// A sequential line walk charges only the first line, like the
	// per-word prefetcher model.
	th.resetCache()
	th.Stats = Stats{}
	for i := int64(0); i < 16; i++ {
		th.LoadLine(off+i*LineSize, &ln)
	}
	if th.Stats.ChargedReads != 1 {
		t.Errorf("sequential LoadLine ChargedReads = %d, want 1", th.Stats.ChargedReads)
	}

	// LoadLine and per-word Load agree on the latency-model state: a word
	// load after LoadLine of its line is free.
	th.resetCache()
	th.Stats = Stats{}
	th.LoadLine(big+4096, &ln)
	th.Load(big + 4096 + 16)
	if th.Stats.ChargedReads != 1 {
		t.Errorf("word-after-line ChargedReads = %d, want 1", th.Stats.ChargedReads)
	}
}

// TestLoadWordsMatchesWordLoop: one LoadWords is the ascending per-word
// Load loop over the same span, on a device that charges reads and on one
// that does not: the same words, the same Loads and ChargedReads, and the
// latency model left in the same state, so a Load that follows is charged
// alike. Spans start anywhere in a line and cross up to three line
// boundaries; a span past the arena panics.
func TestLoadWordsMatchesWordLoop(t *testing.T) {
	for _, lat := range []time.Duration{0, 300 * time.Nanosecond} {
		p := newTestPool(t, Config{ReadLatency: lat})
		off, _ := p.Alloc(1<<16, LineSize)
		w := p.NewThread()
		for i := int64(0); i < 1<<13; i++ {
			w.Store(off+i*WordSize, uint64(i*7+1))
		}
		for _, start := range []int64{0, 3, 7, 8, 13} {
			for _, n := range []int{0, 1, 2, 5, 8, 9, 17, 31} {
				from := off + 4096 + start*WordSize
				// Both threads first touch the same two lines, so the
				// span meets a warm tag and a last-line neighbour.
				ref, th := p.NewThread(), p.NewThread()
				for _, x := range []*Thread{ref, th} {
					x.Load(from + 2*LineSize)
					x.Load(from - LineSize)
				}
				want := make([]uint64, n)
				for i := range want {
					want[i] = ref.Load(from + int64(i)*WordSize)
				}
				got := make([]uint64, n)
				th.LoadWords(from, got)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v start %d n %d: word %d = %d, want %d", lat, start, n, i, got[i], want[i])
					}
				}
				if th.Stats != ref.Stats || th.lastLine != ref.lastLine || th.tags != ref.tags {
					t.Fatalf("%v start %d n %d: LoadWords left stats %+v, word loop %+v (or a different model state)",
						lat, start, n, th.Stats, ref.Stats)
				}
				for _, next := range []int64{from + int64(n)*WordSize, from + 3*LineSize, from + 9*LineSize} {
					ref.Load(next)
					th.Load(next)
					if th.Stats.ChargedReads != ref.Stats.ChargedReads {
						t.Fatalf("%v start %d n %d: Load(%d) after LoadWords charged %d, after the loop %d",
							lat, start, n, next-from, th.Stats.ChargedReads, ref.Stats.ChargedReads)
					}
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: LoadWords past the arena did not panic", lat)
				}
			}()
			w.LoadWords(p.Size()-WordSize, make([]uint64, 2))
		}()
	}
}

func TestFlushStallAttribution(t *testing.T) {
	p := newTestPool(t, Config{WriteLatency: 200 * time.Microsecond})
	th := p.NewThread()
	th.TimePhases()
	off, _ := p.Alloc(64, 64)
	th.BeginPhase(PhaseUpdate)
	th.Store(off, 1)
	th.Flush(off, 8)
	th.EndPhase()
	if th.Stats.PhaseTime[PhaseFlush] < 200*time.Microsecond {
		t.Errorf("flush time %v < write latency", th.Stats.PhaseTime[PhaseFlush])
	}
	if th.Stats.PhaseTime[PhaseUpdate] > 150*time.Microsecond {
		t.Errorf("update phase double-counted flush stall: %v", th.Stats.PhaseTime[PhaseUpdate])
	}
}

// stallRig returns a thread on a pool whose reads and writes cost lat, and
// two lines that share a slot of the thread's tag cache, so loads that
// alternate between them are all charged while both stay in the CPU cache.
func stallRig(tb testing.TB, lat time.Duration) (th *Thread, a, b int64) {
	tb.Helper()
	p := New(Config{Size: 1 << 20, ReadLatency: lat, WriteLatency: lat})
	off, err := p.Alloc((cacheSlots+1)*LineSize, LineSize)
	if err != nil {
		tb.Fatal(err)
	}
	return p.NewThread(), off, off + cacheSlots*LineSize
}

// TestStallChargesConfiguredLatency checks the emulator's accuracy
// contract: a flushed line and a charged read each cost their configured
// latency, not the latency plus the clock reads that time the stall. It
// takes the best of many short trials spread out by sleeps, so one quiet
// stretch of a busy host is enough: a few back-to-back long trials all
// fell inside one noisy stretch and read over the upper bound.
func TestStallChargesConfiguredLatency(t *testing.T) {
	const lat, n, trials = 300 * time.Nanosecond, 2000, 40
	th, a, b := stallRig(t, lat)
	lines := [2]int64{a, b}
	for _, c := range []struct {
		name    string
		op      func(i int)
		charged func() uint64
	}{
		{"flushed line", func(int) { th.Flush(a, 8) }, func() uint64 { return th.Stats.FlushedLines }},
		{"charged read", func(i int) { th.Load(lines[i&1]) }, func() uint64 { return th.Stats.ChargedReads }},
	} {
		before := c.charged()
		best := time.Duration(math.MaxInt64)
		for range trials {
			time.Sleep(time.Millisecond)
			t0 := time.Now()
			for i := range n {
				c.op(i)
			}
			best = min(best, time.Since(t0)/n)
		}
		if got := c.charged() - before; got != trials*n {
			t.Fatalf("%s: %d stalls charged, want %d", c.name, got, trials*n)
		}
		t.Logf("%s: %v per stall at %v", c.name, best, lat)
		if best < lat*95/100 {
			t.Errorf("%s costs %v, under 0.95 × %v", c.name, best, lat)
		}
		// The upper bound is a wall-clock shape; shared runners (-short)
		// can be too noisy for it.
		if !testing.Short() && best > lat*115/100 {
			t.Errorf("%s costs %v, over 1.15 × %v", c.name, best, lat)
		}
	}
}

// TestStallCarryIsCapped pins the carry's arithmetic: a stall's overshoot
// is repaid by the thread's next stall, but never more than one latency of
// it, so a thread descheduled mid-spin is forgiven.
func TestStallCarryIsCapped(t *testing.T) {
	const lat = 300 * time.Nanosecond
	if got := overshoot(lat, 250*time.Nanosecond, 290*time.Nanosecond); got != 40*time.Nanosecond {
		t.Errorf("overshoot of a 290 ns spin wanting 250 ns = %v, want 40ns", got)
	}
	if got := overshoot(lat, 250*time.Nanosecond, time.Millisecond); got != lat {
		t.Errorf("overshoot of a descheduled spin = %v, want the cap %v", got, lat)
	}
	th, _, _ := stallRig(t, lat)
	th.carry = lat + 100*time.Nanosecond
	if el := th.spin(lat, nil, 0); el != 0 || th.carry != 100*time.Nanosecond {
		t.Errorf("spin owing %v: spun %v, carry %v; want 0 and 100ns", lat+100*time.Nanosecond, el, th.carry)
	}
	th.spin(lat, nil, 0)
	if th.carry > lat {
		t.Errorf("carry %v exceeds one latency %v", th.carry, lat)
	}
}

// BenchmarkStall times one flushed line and one charged read at 300 ns;
// each should read close to 300 ns/op. cold-read is a charged node read
// on memory the host does not hold in cache: one charged line, then the 3
// lines after it, at 256-byte groups visited in a fixed shuffled order
// over a pre-touched 128 MiB pool. It costs the larger of 300 ns and the
// host's own miss, so it carries no bound: on a host whose miss is slower
// than the configured latency, the miss sets it.
func BenchmarkStall(b *testing.B) {
	th, x, y := stallRig(b, 300*time.Nanosecond)
	b.Run("flush", func(b *testing.B) {
		for range b.N {
			th.Flush(x, 8)
		}
	})
	b.Run("read", func(b *testing.B) {
		lines := [2]int64{x, y}
		for i := range b.N {
			th.Load(lines[i&1])
		}
	})
	b.Run("cold-read", func(b *testing.B) {
		const size, group = 128 << 20, 4 * LineSize
		p := New(Config{Size: size, ReadLatency: 300 * time.Nanosecond})
		th := p.NewThread()
		for off := int64(0); off < size; off += 4096 {
			th.StoreVolatile(off, 1)
		}
		order := rand.New(rand.NewSource(1)).Perm(size / group)
		before := th.Stats.ChargedReads
		b.ResetTimer()
		for i := range b.N {
			off := int64(order[i%len(order)]) * group
			for ln := range int64(4) {
				th.Load(off + ln*LineSize)
			}
		}
		b.ReportMetric(float64(th.Stats.ChargedReads-before)/float64(b.N), "charged/op")
	})
}

func TestCloneIsIndependent(t *testing.T) {
	p := newTestPool(t, Config{})
	th := p.NewThread()
	off, _ := p.Alloc(64, 64)
	th.Store(off, 7)
	c := p.Clone(false)
	cth := c.NewThread()
	if got := cth.Load(off); got != 7 {
		t.Fatalf("clone lost data: %d", got)
	}
	cth.Store(off, 8)
	if got := th.Load(off); got != 7 {
		t.Fatalf("clone writes leaked into source: %d", got)
	}
	// Clone allocations must not overlap source's live data.
	a, err := c.Alloc(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a <= off {
		t.Fatalf("clone alloc %d overlaps source high-water %d", a, off)
	}
}

// crashSetup stores a known pattern across two lines with a flush between.
func crashSetup(t *testing.T, model MemModel) (*Pool, *Thread, int64) {
	t.Helper()
	p := New(Config{Size: 1 << 16, TrackCrashes: true, Model: model})
	th := p.NewThread()
	off, err := p.Alloc(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	p.StartCrashLog()
	return p, th, off
}

func TestCrashNoneLosesUnflushed(t *testing.T) {
	p, th, off := crashSetup(t, TSO)
	th.Store(off, 1)
	th.Store(off+8, 2)
	img := p.CrashImage(p.LogLen(), CrashNone, nil)
	ith := img.NewThread()
	if ith.Load(off) != 0 || ith.Load(off+8) != 0 {
		t.Error("unflushed stores survived CrashNone")
	}
}

func TestCrashFlushGuarantees(t *testing.T) {
	p, th, off := crashSetup(t, TSO)
	th.Store(off, 1)
	th.Flush(off, 8)
	th.Store(off+8, 2) // same line, after the flush: not guaranteed
	img := p.CrashImage(p.LogLen(), CrashNone, nil)
	ith := img.NewThread()
	if got := ith.Load(off); got != 1 {
		t.Errorf("flushed store lost: %d", got)
	}
	if got := ith.Load(off + 8); got != 0 {
		t.Errorf("post-flush store survived CrashNone: %d", got)
	}
}

func TestCrashAllKeepsEverything(t *testing.T) {
	p, th, off := crashSetup(t, TSO)
	th.Store(off, 1)
	th.Store(off+64, 2)
	img := p.CrashImage(p.LogLen(), CrashAll, nil)
	ith := img.NewThread()
	if ith.Load(off) != 1 || ith.Load(off+64) != 2 {
		t.Error("CrashAll dropped stores")
	}
}

func TestCrashPointTruncatesHistory(t *testing.T) {
	p, th, off := crashSetup(t, TSO)
	th.Store(off, 1)
	cut := p.LogLen()
	th.Store(off+8, 2)
	img := p.CrashImage(cut, CrashAll, nil)
	ith := img.NewThread()
	if ith.Load(off) != 1 {
		t.Error("pre-point store lost")
	}
	if ith.Load(off+8) != 0 {
		t.Error("post-point store survived")
	}
}

// TestCrashTSOPrefix verifies that random TSO crash images always hold a
// program-order prefix of same-line stores.
func TestCrashTSOPrefix(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p, th, off := crashSetup(t, TSO)
		// Three stores to one line, in order.
		th.Store(off, 1)
		th.Store(off+8, 2)
		th.Store(off+16, 3)
		rng := rand.New(rand.NewSource(seed))
		img := p.CrashImage(p.LogLen(), CrashRandom, rng)
		ith := img.NewThread()
		a, b, c := ith.Load(off), ith.Load(off+8), ith.Load(off+16)
		// Legal states: (0,0,0), (1,0,0), (1,2,0), (1,2,3).
		ok := (a == 0 && b == 0 && c == 0) ||
			(a == 1 && b == 0 && c == 0) ||
			(a == 1 && b == 2 && c == 0) ||
			(a == 1 && b == 2 && c == 3)
		if !ok {
			t.Fatalf("seed %d: illegal TSO state (%d,%d,%d)", seed, a, b, c)
		}
	}
}

// TestCrashNonTSOFences verifies that under NonTSO, stores separated by
// StoreFence persist in fence order while unfenced stores may reorder.
func TestCrashNonTSOFences(t *testing.T) {
	sawReorder := false
	for seed := int64(0); seed < 400; seed++ {
		p := New(Config{Size: 1 << 16, TrackCrashes: true, Model: NonTSO})
		th := p.NewThread()
		off, _ := p.Alloc(64, 64)
		p.StartCrashLog()
		th.Store(off, 1)
		th.StoreFence()
		th.Store(off+8, 2) // fenced after off: if off+8 persists, off must too
		th.Store(off+16, 3)
		th.Store(off+24, 4) // unfenced vs off+16: may persist without it
		rng := rand.New(rand.NewSource(seed))
		img := p.CrashImage(p.LogLen(), CrashRandom, rng)
		ith := img.NewThread()
		a, b, c, d := ith.Load(off), ith.Load(off+8), ith.Load(off+16), ith.Load(off+24)
		if (b != 0 || c != 0 || d != 0) && a == 0 {
			t.Fatalf("seed %d: fence violated: later epoch persisted without earlier (a=%d b=%d c=%d d=%d)", seed, a, b, c, d)
		}
		if d != 0 && c == 0 {
			sawReorder = true // legal on NonTSO, impossible on TSO
		}
	}
	if !sawReorder {
		t.Error("NonTSO crash model never produced a same-epoch reorder in 400 seeds")
	}
}

// TestCrashVolatileStoresExcluded checks StoreVolatile never persists.
func TestCrashVolatileStoresExcluded(t *testing.T) {
	p, th, off := crashSetup(t, TSO)
	th.StoreVolatile(off, 99)
	img := p.CrashImage(p.LogLen(), CrashAll, nil)
	ith := img.NewThread()
	if got := ith.Load(off); got != 0 {
		t.Errorf("volatile store persisted: %d", got)
	}
	// But it is visible in the live pool.
	if got := th.Load(off); got != 99 {
		t.Errorf("volatile store not visible live: %d", got)
	}
}

// TestCrashImagesEnumeratesEveryPointAndMode: CrashImages yields every point
// in [0, LogLen()] under every mode, point-major, and each image is the
// one CrashImage builds in that order from an rng with the same seed.
func TestCrashImagesEnumeratesEveryPointAndMode(t *testing.T) {
	p, th, off := crashSetup(t, NonTSO)
	for i := int64(0); i < 6; i++ {
		th.Store(off+i*WordSize, uint64(i+1))
		if i%2 == 1 {
			th.StoreFence()
		}
	}
	th.Flush(off, 8)
	th.Store(off+64, 7)
	th.Store(off+72, 8)
	want := rand.New(rand.NewSource(3))
	n := 0
	for cp, img := range p.CrashImages(rand.New(rand.NewSource(3))) {
		if w := (CrashPoint{n / len(CrashModes), CrashModes[n%len(CrashModes)]}); cp != w {
			t.Fatalf("image %d is %v, want %v", n, cp, w)
		}
		ref := p.CrashImage(cp.Point, cp.Mode, want)
		for w := int64(0); w < img.Size(); w += WordSize {
			if img.rawLoad(w) != ref.rawLoad(w) {
				t.Fatalf("%v: word at %d = %#x, CrashImage has %#x", cp, w, img.rawLoad(w), ref.rawLoad(w))
			}
		}
		n++
	}
	if want := (p.LogLen() + 1) * len(CrashModes); n != want {
		t.Fatalf("CrashImages yielded %d images, want %d", n, want)
	}
}

func TestCrashMarkBoundaries(t *testing.T) {
	p, th, off := crashSetup(t, TSO)
	th.Store(off, 1)
	th.Flush(off, 8)
	m := p.Mark(1)
	th.Store(off+64, 2)
	th.Flush(off+64, 8)
	img := p.CrashImage(m, CrashAll, nil)
	ith := img.NewThread()
	if ith.Load(off) != 1 {
		t.Error("op before mark lost")
	}
	if ith.Load(off+64) != 0 {
		t.Error("op after mark visible")
	}
}

// TestCrashImageQuick cross-checks the random crash generator against the
// legality predicate for arbitrary store/flush tapes on one line.
func TestCrashImageQuick(t *testing.T) {
	f := func(ops []byte, seed int64) bool {
		p := New(Config{Size: 1 << 16, TrackCrashes: true, Model: TSO})
		th := p.NewThread()
		off, _ := p.Alloc(64, 64)
		p.StartCrashLog()
		// Replay tape: even byte = store next counter value at (b%8)*8,
		// odd = flush line.
		var vals []uint64 // program-order store log: offsets and values
		var offs []int64
		var flushedAt []int // indices into vals guaranteed at each flush
		ctr := uint64(0)
		for _, b := range ops {
			if b%2 == 0 {
				ctr++
				o := off + int64(b%8)*8
				th.Store(o, ctr)
				offs = append(offs, o)
				vals = append(vals, ctr)
			} else {
				th.Flush(off, 64)
				flushedAt = append(flushedAt, len(vals))
			}
		}
		rng := rand.New(rand.NewSource(seed))
		img := p.CrashImage(p.LogLen(), CrashRandom, rng)
		ith := img.NewThread()
		// The image must equal replaying some prefix of the store
		// tape with length >= last flush point.
		guaranteed := 0
		if len(flushedAt) > 0 {
			guaranteed = flushedAt[len(flushedAt)-1]
		}
		for cut := guaranteed; cut <= len(vals); cut++ {
			state := map[int64]uint64{}
			for i := 0; i < cut; i++ {
				state[offs[i]] = vals[i]
			}
			match := true
			for w := int64(0); w < 8; w++ {
				if ith.Load(off+w*8) != state[off+w*8] {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
