package pmem

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every pool in this package's tests tracks block states exactly: a double
// free, a double retire or an Alloc of a block still in limbo panics.
func TestMain(m *testing.M) {
	SetAllocCheck(true)
	os.Exit(m.Run())
}

// churn retires and re-allocates n scratch blocks on th, driving
// n/retireBatch reclaim attempts. The scratch blocks are of a size class the
// tests' 8-byte blocks never share, so the one 8-byte block a test retires
// is the only thing its free list can hold: the next mustAlloc returns it
// exactly when it has been freed.
func churn(t *testing.T, p *Pool, th *Thread, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		off, err := p.Alloc(16, 8)
		if err != nil {
			t.Fatal(err)
		}
		p.Retire(th, off, 16)
	}
}

func mustAlloc(t *testing.T, p *Pool) int64 {
	t.Helper()
	off, err := p.Alloc(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

func TestRetiredBlockWaitsForOpenSection(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	reader, writer := p.NewThread(), p.NewThread()
	blk := mustAlloc(t, p)

	reader.Enter()
	p.Retire(writer, blk, 8)
	churn(t, p, writer, 20*retireBatch)
	if mustAlloc(t, p) == blk {
		t.Fatal("block retired under an open section was allocated again")
	}
	if got := len(writer.limbo); got < 20*retireBatch {
		t.Fatalf("limbo drained to %d entries while a section stayed open", got)
	}
	reader.Exit()
	churn(t, p, writer, 3*retireBatch)
	if mustAlloc(t, p) != blk {
		t.Fatal("block not recycled three reclaim attempts after the section closed")
	}
	if got := len(writer.limbo); got > 3*retireBatch {
		t.Fatalf("limbo holds %d entries with no section open, want <= %d", got, 3*retireBatch)
	}
}

func TestNestedSections(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	reader, writer := p.NewThread(), p.NewThread()
	blk := mustAlloc(t, p)

	reader.Enter()
	reader.Enter()
	p.Retire(writer, blk, 8)
	reader.Exit() // inner: the section is still open
	if reader.slot.v.Load() == 0 {
		t.Fatal("inner Exit cleared the announcement")
	}
	churn(t, p, writer, 10*retireBatch)
	if mustAlloc(t, p) == blk {
		t.Fatal("block recycled after the inner Exit only")
	}
	reader.Exit()
	if reader.slot.v.Load() != 0 {
		t.Fatal("outer Exit left the announcement set")
	}
	churn(t, p, writer, 3*retireBatch)
	if mustAlloc(t, p) != blk {
		t.Fatal("block not recycled after the outer Exit")
	}
}

// A thread may retire inside its own section (the store deletes a bucket's
// tree entry that way): its own announcement holds the block back.
func TestRetireInsideOwnSection(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	th := p.NewThread()
	blk := mustAlloc(t, p)
	th.Enter()
	p.Retire(th, blk, 8)
	churn(t, p, th, 10*retireBatch)
	if mustAlloc(t, p) == blk {
		t.Fatal("block recycled inside the section that retired it")
	}
	th.Exit()
	churn(t, p, th, 3*retireBatch)
	if mustAlloc(t, p) != blk {
		t.Fatal("block not recycled after the section closed")
	}
}

func TestReleaseHandsLimboToPool(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	reader, gone, other := p.NewThread(), p.NewThread(), p.NewThread()
	blk := mustAlloc(t, p)

	reader.Enter()
	p.Retire(gone, blk, 8)
	gone.Release() // the open section keeps the block in limbo
	if len(gone.limbo) != 0 || len(p.orphans) != 1 {
		t.Fatalf("after Release: thread limbo %d, pool orphans %d, want 0 and 1", len(gone.limbo), len(p.orphans))
	}
	if got := p.TotalStats().RetiredBlocks; got != 1 {
		t.Fatalf("RetiredBlocks = %d after Release, want 1", got)
	}
	churn(t, p, other, 10*retireBatch)
	if mustAlloc(t, p) == blk {
		t.Fatal("orphaned block recycled under an open section")
	}
	reader.Exit()
	churn(t, p, other, 3*retireBatch)
	if mustAlloc(t, p) != blk {
		t.Fatal("orphaned block not recycled by another thread's reclaim")
	}
	if len(p.orphans) != 0 || p.orphaned.Load() {
		t.Fatalf("orphans not drained: %d left", len(p.orphans))
	}
	if got := p.TotalStats().RecycledBlocks; got == 0 {
		t.Fatal("RecycledBlocks stayed 0 across a churn that reused blocks")
	}
}

func TestThreadReusableAfterRelease(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	reader, writer := p.NewThread(), p.NewThread()
	reader.Enter()
	reader.Exit()
	reader.Release()
	if reader.registered || len(*p.threads.Load()) != 0 {
		t.Fatal("Release left the thread registered")
	}

	blk := mustAlloc(t, p)
	reader.Enter() // registers again
	if !reader.registered {
		t.Fatal("Enter after Release did not register the thread")
	}
	p.Retire(writer, blk, 8)
	churn(t, p, writer, 10*retireBatch)
	if mustAlloc(t, p) == blk {
		t.Fatal("a re-registered thread's section did not hold the block back")
	}
	reader.Exit()
	churn(t, p, writer, 3*retireBatch)
	if mustAlloc(t, p) != blk {
		t.Fatal("block not recycled after the section closed")
	}
}

func TestReleaseInsideSectionPanics(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	th := p.NewThread()
	th.Enter()
	defer func() {
		if recover() == nil {
			t.Fatal("Release inside a section did not panic")
		}
	}()
	th.Release()
}

func TestSynchronizeWaitsForOpenSections(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	p.Synchronize() // no thread registered: returns at once

	reader := p.NewThread()
	reader.Enter()
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Synchronize()
		done.Store(true)
	}()
	time.Sleep(20 * time.Millisecond)
	if done.Load() {
		t.Fatal("Synchronize returned while a section open at the call was still open")
	}
	reader.Exit()
	wg.Wait()
}

// Synchronize against sections that keep opening: it must neither wait for
// sections opened after the call (it would never return here) nor return
// while one that was open at the call still is. Each reader publishes a
// section number around Enter/Exit; the synchronizer checks that every
// section it saw open has closed by the time it returns.
func TestSynchronizeVersusOpeningSections(t *testing.T) {
	const readers = 3
	p := New(Config{Size: 1 << 20})
	var seq [readers]struct {
		open, closed atomic.Uint64
		_            [LineSize]byte
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			th := p.NewThread()
			defer th.Release()
			for n := uint64(1); !stop.Load(); n++ {
				th.Enter()
				seq[r].open.Store(n)
				seq[r].closed.Store(n)
				th.Exit()
			}
		}(r)
	}
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	for i := 0; i < rounds; i++ {
		var open [readers]uint64
		for r := range open {
			open[r] = seq[r].open.Load()
		}
		p.Synchronize()
		for r := range open {
			// Section open[r] had begun before the call; unless it was
			// already over (closed >= open), it was open at the call.
			if got := seq[r].closed.Load(); got < open[r] {
				t.Fatalf("round %d: Synchronize returned with reader %d still in section %d (closed %d)", i, r, open[r], got)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

// Readers hold a block's offset only inside sections; a writer keeps
// retiring the published block and publishing a fresh one stamped with a
// magic value. A reader that loads anything else read a recycled block.
func TestReadersNeverSeeRecycledBlocks(t *testing.T) {
	const magic = 0xfeedface
	p := New(Config{Size: 1 << 20})
	wth := p.NewThread()
	var cur atomic.Int64
	publish := func() {
		off := mustAlloc(t, p)
		wth.Store(off, magic)
		cur.Store(off)
	}
	publish()
	var stop atomic.Bool
	var bad atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := p.NewThread()
			defer th.Release()
			for !stop.Load() {
				th.Enter()
				if v := th.Load(cur.Load()); v != magic {
					bad.Store(v)
				}
				th.Exit()
			}
		}()
	}
	n := 200000
	if testing.Short() {
		n = 30000
	}
	for i := 0; i < n; i++ {
		old := cur.Load()
		publish()
		p.Retire(wth, old, 8)
		// A second cell churns through the same free list, so a retired
		// block gets a new owner — zeroed by Alloc, then stamped — as
		// soon as it is eligible.
		scratch := mustAlloc(t, p)
		wth.Store(scratch, 1)
		p.Retire(wth, scratch, 8)
	}
	stop.Store(true)
	wg.Wait()
	if v := bad.Load(); v != 0 {
		t.Fatalf("a reader inside a section loaded %#x from a retired block", v)
	}
}

func TestEnterExitAllocFree(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	th := p.NewThread()
	th.Enter() // registration allocates once
	th.Exit()
	if n := testing.AllocsPerRun(1000, func() { th.Enter(); th.Exit() }); n != 0 {
		t.Fatalf("Enter/Exit allocate %.1f times per section, want 0", n)
	}
	blk := mustAlloc(t, p)
	for i := 0; i < 10*retireBatch; i++ { // grow limbo and free list to their steady size
		p.Retire(th, blk, 8)
		blk = mustAlloc(t, p)
	}
	if n := testing.AllocsPerRun(1000, func() {
		p.Retire(th, blk, 8)
		var err error
		if blk, err = p.Alloc(8, 8); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Retire+Alloc allocate %.1f times per block, want 0", n)
	}
}

func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if s, _ := r.(string); !strings.Contains(s, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	f()
}

func TestAllocCheckCatchesMisuse(t *testing.T) {
	p := New(Config{Size: 1 << 20})
	th := p.NewThread()
	a := mustAlloc(t, p)

	expectPanic(t, "Free of free block", func() { p.Free(a+4096, 8) }) // never allocated
	expectPanic(t, "allocated with 8", func() { p.Free(a, 16) })
	p.Retire(th, a, 8)
	expectPanic(t, "Retire of retired block", func() { p.Retire(th, a, 8) })
	b := mustAlloc(t, p)
	p.Free(b, 8)
	expectPanic(t, "Free of free block", func() { p.Free(b, 8) })
	expectPanic(t, "Retire of free block", func() { p.Retire(th, b, 8) })
	if c := mustAlloc(t, p); c != b {
		t.Fatalf("free list handed out %d, want the freed %d", c, b)
	}

	// A free list corrupted into holding a live block: Alloc must refuse.
	live := mustAlloc(t, p)
	p.alloc.give(live, 8)
	expectPanic(t, "Alloc of live block", func() { _, _ = p.Alloc(8, 8) })

	// Blocks a reopened image inherited count as live, once.
	img := p.Clone(false)
	ith := img.NewThread()
	img.Retire(ith, live, 8)
	expectPanic(t, "Retire of retired block", func() { img.Retire(ith, live, 8) })
}
