package pmem

import (
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
// whose free lists are gone. (SetAllocCheck is on for this package.)
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
	t.Run("Fresh", func(t *testing.T) {
		p := New(Config{Size: 1 << 16})
		dirty(p)
		requireZeroed(t, p, 3)
	})
	t.Run("Clone", func(t *testing.T) {
		p := New(Config{Size: 1 << 16})
		dirty(p)
		requireZeroed(t, p.Clone(false), 0)
	})
	t.Run("CrashImage", func(t *testing.T) {
		p := New(Config{Size: 1 << 16, TrackCrashes: true})
		p.StartCrashLog()
		dirty(p)
		requireZeroed(t, p.CrashImage(p.LogLen(), CrashAll, nil), 0)
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

func TestFlushStallAttribution(t *testing.T) {
	p := newTestPool(t, Config{WriteLatency: 200 * time.Microsecond})
	th := p.NewThread()
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
