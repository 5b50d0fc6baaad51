package core

import (
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
)

// Value boxes are recycled, so every pool in this package's tests tracks
// block states exactly: a box retired twice — one cell handed to two keys —
// or allocated while still in limbo panics where it happens.
func TestMain(m *testing.M) {
	pmem.SetAllocCheck(true)
	os.Exit(m.Run())
}

// --- reuse safety ------------------------------------------------------------

// Every value in the reuse-safety test names its key, so a value read
// through a box that now belongs to another key is recognisable whoever the
// new owner is. Stable keys are even and never touched after set-up; the
// toggled keys are the odd ones in between (same leaves, so their inserts
// and deletes shift the stable entries around).
const toggleTag = uint64(1) << 63

func stableVal(k uint64) uint64        { return k*2654435761 + 1 }
func toggleVal(k, round uint64) uint64 { return toggleTag | k<<32 | round&0xffffffff }
func valueFitsKey(k, v uint64) bool {
	if k%2 == 0 {
		return v == stableVal(k)
	}
	return v&toggleTag != 0 && v&^toggleTag>>32 == k
}

// TestRecycledBoxesNeverReachReaders is the test the grace period exists
// for. Writers toggle a handful of keys, so the same few boxes go round the
// free list as fast as the allocator lets them; readers Get and Scan the
// whole range and fail on the first value that does not name the key it was
// returned for — which is what a reader gets when the box it found under a
// key is retired, recycled and rewritten before it loads it (Alloc's zeroing
// alone would do). With Retire replaced by an immediate Free it fails within
// a fraction of the run. The stable keys must also never go missing, however
// the toggles shift them about. Run with -race.
func TestRecycledBoxesNeverReachReaders(t *testing.T) {
	tr, th0 := newTestTree(t, Options{NodeSize: 256})
	const (
		span    = 64 // keys 0..span-1: a few leaves
		writers = 2
		readers = 2
	)
	for k := uint64(0); k < span; k += 2 {
		if err := tr.Insert(th0, k, stableVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	rounds := uint64(150000)
	if testing.Short() {
		rounds = 30000
	}

	var stop atomic.Bool
	var wwg, rwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			th := tr.Pool().NewThread()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(w)))
			// Each writer owns the odd keys congruent to its index, and
			// keeps at most two of them present: a tiny box population.
			var mine []uint64
			for k := uint64(2*w + 1); k < span; k += 2 * writers {
				mine = append(mine, k)
			}
			present := map[uint64]bool{}
			for r := uint64(0); r < rounds && !t.Failed(); r++ {
				k := mine[rng.Intn(len(mine))]
				if present[k] {
					if !tr.Delete(th, k) {
						t.Errorf("writer %d: Delete(%d) missed a key it had inserted", w, k)
						return
					}
					delete(present, k)
					continue
				}
				if len(present) == 2 {
					for old := range present {
						tr.Delete(th, old)
						delete(present, old)
						break
					}
				}
				if err := tr.Insert(th, k, toggleVal(k, r)); err != nil {
					t.Error(err)
					return
				}
				present[k] = true
			}
		}(w)
	}
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			th := tr.Pool().NewThread()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			n := int64(0)
			for !stop.Load() && !t.Failed() {
				k := rng.Uint64() % span
				v, ok := tr.Get(th, k)
				switch {
				case ok && !valueFitsKey(k, v):
					t.Errorf("Get(%d) = %#x: another key's value", k, v)
				case !ok && k%2 == 0:
					t.Errorf("Get(%d) missed a stable key", k)
				}
				lo := rng.Uint64() % span
				hi, stable := min(lo+16, span-1), 0
				tr.Scan(th, lo, hi, func(k, v uint64) bool {
					if !valueFitsKey(k, v) {
						t.Errorf("Scan returned (%d, %#x): another key's value", k, v)
					}
					if k%2 == 0 {
						stable++
					}
					n++
					return true
				})
				if want := int(hi/2) - int((lo+1)/2) + 1; stable != want {
					t.Errorf("Scan(%d, %d) returned %d stable keys, want %d", lo, hi, stable, want)
				}
				n++
			}
			reads.Add(n)
		}(r)
	}
	wwg.Wait()
	stop.Store(true)
	rwg.Wait()

	if err := tr.CheckInvariants(th0); err != nil {
		t.Fatal(err)
	}
	st := tr.Pool().TotalStats()
	if st.RecycledBlocks == 0 {
		t.Fatalf("no box was ever recycled (%d retired): the test exercised nothing", st.RetiredBlocks)
	}
	t.Logf("%d values checked against %d retired / %d recycled boxes", reads.Load(), st.RetiredBlocks, st.RecycledBlocks)
}

// --- footprint ---------------------------------------------------------------

// limboSlack bounds what a single thread can hold in limbo at a quiet
// moment: three retire batches (pmem's retireBatch is 64) of 8-byte boxes,
// rounded up.
const limboSlack = 4 << 10

// TestToggleFootprintIsStationary: inserting and deleting the same universe
// over and over must not grow the pool. After the first pass has built the
// leaves (emptied leaves stay, full of tombstones, and every key takes its
// own stale slot back), every further pass costs nothing but the boxes in
// limbo — and not one node. With boxes never recycled, each pass costs 8
// bytes per key.
func TestToggleFootprintIsStationary(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	p := tr.Pool()
	const universe = 3000
	keys := rand.New(rand.NewSource(1)).Perm(universe)
	used := func() int64 { return p.Size() - p.FreeBytes() }
	var after2 int64
	var nodes2 int
	for pass := 1; pass <= 20; pass++ {
		for _, k := range keys {
			if err := tr.Insert(th, uint64(k), uint64(k)+1); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range keys {
			if !tr.Delete(th, uint64(k)) {
				t.Fatalf("pass %d: Delete(%d) missed", pass, k)
			}
		}
		if pass == 2 {
			after2, nodes2 = used(), countNodes(tr, th)
		}
		if got := countNodes(tr, th); pass > 2 && got != nodes2 {
			t.Fatalf("pass %d allocated %d nodes: a re-insert did not land on its own stale slot", pass, got-nodes2)
		}
	}
	if grew := used() - after2; grew > limboSlack {
		t.Fatalf("18 toggle passes of %d keys grew the pool by %d bytes (limbo allows %d; never recycling costs %d)",
			universe, grew, limboSlack, 18*universe*8)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

// --- crash matrices on recycled boxes ------------------------------------------

// churnedCrashTree builds the ten-key leaf the crash matrices use on a
// tracked pool, then toggles a scratch key until the allocator's free list
// holds boxes whose persisted contents are another key's old values: the
// next insert takes one of them. Alloc zeroes a recycled box with a store
// the crash log never sees, so until the insert's own logged store to the
// box is flushed, a crash image shows the scratch value in it.
func churnedCrashTree(t *testing.T, model pmem.MemModel) (*pmem.Pool, *pmem.Thread, *BTree, map[uint64]uint64) {
	t.Helper()
	setup, order := buildSetup(10, 10, 100) // keys 100..190
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
	th := p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range order {
		if err := tr.Insert(th, k, setup[k]); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 400; i++ {
		if err := tr.Insert(th, 1000, 0xdead0000+i); err != nil {
			t.Fatal(err)
		}
		tr.Delete(th, 1000)
	}
	if p.TotalStats().RecycledBlocks == 0 {
		t.Fatal("churn recycled no box")
	}
	return p, th, tr, setup
}

// insertRecycled runs one Insert and fails unless its box came off the free
// list.
func insertRecycled(t *testing.T, p *pmem.Pool, th *pmem.Thread, tr *BTree, key, val uint64) {
	t.Helper()
	before := p.TotalStats().RecycledBlocks
	if err := tr.Insert(th, key, val); err != nil {
		t.Fatal(err)
	}
	if got := p.TotalStats().RecycledBlocks - before; got != 1 {
		t.Fatalf("Insert(%d) took %d recycled boxes, want 1", key, got)
	}
}

// TestRecycledBoxInsertMatrix re-runs the every-persist-point insert
// matrices with the taped insert landing in a recycled box. At every cut the
// key is absent or holds the new value; the box's previous life — a scratch
// value in the image until the new one persists — is never reachable.
func TestRecycledBoxInsertMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  uint64
	}{{"Middle", 145}, {"Head", 5}, {"Append", 500}} {
		t.Run(tc.name, func(t *testing.T) {
			forBothModels(t, func(t *testing.T, model pmem.MemModel) {
				p, th, tr, setup := churnedCrashTree(t, model)
				p.StartCrashLog()
				insertRecycled(t, p, th, tr, tc.key, 999)
				verifyAllCrashPoints(t, p, Options{}, setup,
					&inflightOp{key: tc.key, oldOK: false, newVal: 999, newOK: true})
			})
		})
	}
}

// TestRecycledBoxDeleteMatrix tapes the delete of a key that lives in a
// recycled box: present with its value or gone, at every cut.
func TestRecycledBoxDeleteMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  uint64
	}{{"Middle", 145}, {"Head", 5}, {"Last", 500}} {
		t.Run(tc.name, func(t *testing.T) {
			forBothModels(t, func(t *testing.T, model pmem.MemModel) {
				p, th, tr, setup := churnedCrashTree(t, model)
				insertRecycled(t, p, th, tr, tc.key, 999)
				p.StartCrashLog()
				if !tr.Delete(th, tc.key) {
					t.Fatal("Delete missed")
				}
				verifyAllCrashPoints(t, p, Options{}, setup,
					&inflightOp{key: tc.key, oldVal: 999, oldOK: true, newOK: false})
			})
		})
	}
}

// --- the suspect flag ----------------------------------------------------------

// loadsOfOverwrite measures the loads one overwrite issues on tr.
func loadsOfOverwrite(t *testing.T, tr *BTree, th *pmem.Thread, key uint64) uint64 {
	t.Helper()
	before := th.Stats.Loads
	if err := tr.Insert(th, key, 7); err != nil {
		t.Fatal(err)
	}
	return th.Stats.Loads - before
}

// TestRepairPassOnlyOnSuspectTrees pins who pays for lazy recovery: a tree
// attached to an image repairs every node it latches until a Recover has
// swept it; a tree that was created here, or recovered, never does.
func TestRepairPassOnlyOnSuspectTrees(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	for k := uint64(0); k < 20; k++ {
		if err := tr.Insert(th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.suspect.Load() {
		t.Fatal("a tree from New is suspect")
	}
	fresh := loadsOfOverwrite(t, tr, th, 10)

	img := tr.Pool().Clone(false)
	ith := img.NewThread()
	tr2, err := Open(img, ith, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.suspect.Load() {
		t.Fatal("a tree from Open is not suspect")
	}
	lazy := loadsOfOverwrite(t, tr2, ith, 10)
	if lazy <= fresh+20 {
		t.Fatalf("overwrite on an unrecovered image issued %d loads, on a fresh tree %d: the repair pass did not run", lazy, fresh)
	}
	if err := tr2.Recover(ith); err != nil {
		t.Fatal(err)
	}
	if tr2.suspect.Load() {
		t.Fatal("Recover left the tree suspect")
	}
	if got := loadsOfOverwrite(t, tr2, ith, 10); got != fresh {
		t.Fatalf("overwrite after Recover issued %d loads, on a fresh tree %d", got, fresh)
	}
}

// TestScanSkipsUntruncatedOverlap: a crash between a FAIR split's link and
// its truncation leaves the upper half in both leaves. Without Recover, a
// key deleted from the sibling is still sitting — valid — in the left leaf,
// its box free to be recycled. Scan must not report it from there.
func TestScanSkipsUntruncatedOverlap(t *testing.T) {
	opts := Options{NodeSize: 256} // 11 entries per leaf
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 11; i++ {
		if err := tr.Insert(th, 100+i*10, 100+i*10); err != nil {
			t.Fatal(err)
		}
	}
	p.StartCrashLog()
	if err := tr.Insert(th, 145, 145); err != nil { // splits the root leaf
		t.Fatal(err)
	}
	// Find a cut with the sibling linked and the truncation not persisted:
	// the left leaf then still holds all eleven keys.
	var img *pmem.Pool
	for point := 0; point <= p.LogLen() && img == nil; point++ {
		c := p.CrashImage(point, pmem.CrashNone, nil)
		cth := c.NewThread()
		ctr, err := Open(c, cth, opts)
		if err != nil {
			t.Fatal(err)
		}
		root := ctr.root(cth)
		if ctr.level(cth, root) == 0 && ctr.sibling(cth, root).valid() && ctr.count(cth, root) == 11 {
			img = c
		}
	}
	if img == nil {
		t.Fatal("no cut between link and truncation")
	}
	ith := img.NewThread()
	tr2, err := Open(img, ith, opts)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 190 // upper half: owned by the sibling, duplicated on the left
	if !tr2.Delete(ith, victim) {
		t.Fatal("Delete missed the victim")
	}
	// Recycle the victim's box under other keys of the sibling's range.
	for i := uint64(0); i < 400; i++ {
		k := 300 + i%4
		if err := tr2.Insert(ith, k, 0xbad0000+i); err != nil {
			t.Fatal(err)
		}
		tr2.Delete(ith, k)
	}
	tr2.Scan(ith, 0, 250, func(k, v uint64) bool {
		if k == victim || v != k {
			t.Errorf("Scan returned (%d, %#x) after %d was deleted", k, v, victim)
		}
		return true
	})
	if _, ok := tr2.Get(ith, victim); ok {
		t.Error("Get found the deleted victim")
	}
}

// TestScanSkipsOverlapOfLiveSplit is the same overlap without a crash: a
// splitter descheduled between link and truncation. Everything below runs
// inside that window, on the splitter's goroutine with a second thread. The
// deleter reaches the sibling through the link, so the left leaf's latch
// does not hold it up; the victim's box is retired, recycled and rewritten
// while the left leaf still names it. A Scan arriving now opens its section
// after all of that and is protected by the fence alone.
func TestScanSkipsOverlapOfLiveSplit(t *testing.T) {
	tr, th := newTestTree(t, Options{NodeSize: 256}) // 11 entries per leaf
	for i := uint64(0); i < 11; i++ {
		if err := tr.Insert(th, 100+i*10, 100+i*10); err != nil {
			t.Fatal(err)
		}
	}
	const victim = 190 // upper half
	ran := false
	splitLinked = func(st *BTree, level int) {
		if st != tr || level != 0 || ran {
			return
		}
		ran = true
		th2 := tr.Pool().NewThread()
		defer th2.Release()
		if !tr.Delete(th2, victim) {
			t.Error("Delete missed the victim")
		}
		for i := uint64(0); i < 400; i++ {
			k := 300 + i%4
			if err := tr.Insert(th2, k, 0xbad0000+i); err != nil {
				t.Error(err)
			}
			tr.Delete(th2, k)
		}
		seen := 0
		tr.Scan(th2, 0, 250, func(k, v uint64) bool {
			seen++
			if k == victim || v != k {
				t.Errorf("Scan returned (%d, %#x) after %d was deleted", k, v, victim)
			}
			return true
		})
		if seen != 10 {
			t.Errorf("Scan inside the split window saw %d keys, want 10", seen)
		}
		if _, ok := tr.Get(th2, victim); ok {
			t.Error("Get found the deleted victim")
		}
	}
	defer func() { splitLinked = nil }()
	if err := tr.Insert(th, 145, 145); err != nil { // splits the root leaf
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("the insert did not split")
	}
	seen := 0
	tr.Scan(th, 0, 250, func(k, v uint64) bool {
		seen++
		if k == victim || v != k {
			t.Errorf("after the split: Scan returned (%d, %#x)", k, v)
		}
		return true
	})
	if seen != 11 {
		t.Errorf("after the split: %d keys, want 11", seen)
	}
}

// TestSplitWindowSameKeyInsert: a splitter lets go of its latch between the
// split and the insert that caused it. A racing insert of the same key that
// gets in first — here through the link, while the splitter is still inside
// the split — must leave the splitter's an overwrite, not a second entry.
func TestSplitWindowSameKeyInsert(t *testing.T) {
	t.Run("Boxed", func(t *testing.T) { splitWindowSameKeyInsert(t, Options{NodeSize: 256}) })
	t.Run("InlineValues", func(t *testing.T) { splitWindowSameKeyInsert(t, Options{NodeSize: 256, InlineValues: true}) })
}

func splitWindowSameKeyInsert(t *testing.T, opts Options) {
	tr, th := newTestTree(t, opts) // 11 entries per leaf
	for i := uint64(0); i < 11; i++ {
		if err := tr.Insert(th, 100+i*10, 100+i*10); err != nil {
			t.Fatal(err)
		}
	}
	const key = 195 // upper half: the racer reaches the sibling past the lowered high key
	ran := false
	splitLinked = func(st *BTree, level int) {
		if st != tr || level != 0 || ran {
			return
		}
		ran = true
		th2 := tr.Pool().NewThread()
		defer th2.Release()
		if err := tr.Insert(th2, key, 1); err != nil {
			t.Error(err)
		}
	}
	defer func() { splitLinked = nil }()
	if old, existed, err := tr.Exchange(th, key, 2); err != nil || existed || old != 0 {
		t.Fatalf("Exchange = %d, %v, %v", old, existed, err)
	}
	if !ran {
		t.Fatal("the insert did not split")
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(th, key); !ok || v != 2 {
		t.Fatalf("Get(%d) = %d,%v want the later writer's 2", key, v, ok)
	}
	if n := tr.Len(th); n != 12 {
		t.Fatalf("Len = %d, want 12", n)
	}
}
