package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"weak"

	"repro/internal/pmem"
)

func newTestTree(t testing.TB, opts Options) (*BTree, *pmem.Thread) {
	t.Helper()
	p := pmem.New(pmem.Config{Size: 64 << 20})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr, th
}

func TestEmptyTree(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	if _, ok := tr.Get(th, 42); ok {
		t.Error("Get on empty tree found a key")
	}
	if tr.Delete(th, 42) {
		t.Error("Delete on empty tree reported success")
	}
	if n := tr.Len(th); n != 0 {
		t.Errorf("Len = %d, want 0", n)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Error(err)
	}
	if h := tr.Height(th); h != 1 {
		t.Errorf("Height = %d, want 1", h)
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	for i := uint64(1); i <= 10; i++ {
		if err := tr.Insert(th, i*10, i*100); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 10; i++ {
		v, ok := tr.Get(th, i*10)
		if !ok || v != i*100 {
			t.Fatalf("Get(%d) = %d,%v want %d,true", i*10, v, ok, i*100)
		}
	}
	if _, ok := tr.Get(th, 15); ok {
		t.Error("Get(15) found a missing key")
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Error(err)
	}
}

func TestUpsertReplacesValue(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	if err := tr.Insert(th, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(th, 7, 2); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(th, 7); !ok || v != 2 {
		t.Fatalf("Get(7) = %d,%v want 2,true", v, ok)
	}
	if n := tr.Len(th); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

func TestInsertDescendingSplitsLeft(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	const n = 5000
	for i := n; i >= 1; i-- {
		if err := tr.Insert(th, uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if v, ok := tr.Get(th, uint64(i)); !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestInsertAscendingManySplits(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	const n = 5000
	for i := 1; i <= n; i++ {
		if err := tr.Insert(th, uint64(i), uint64(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Height(th); h < 3 {
		t.Errorf("Height = %d, want >= 3 after %d inserts", h, n)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(th); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

func TestDeleteBasics(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	for i := uint64(0); i < 100; i++ {
		if err := tr.Insert(th, i, i); err != nil {
			t.Fatal(err)
		}
	}
	// Delete evens.
	for i := uint64(0); i < 100; i += 2 {
		if !tr.Delete(th, i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if tr.Delete(th, 4) {
		t.Error("double delete succeeded")
	}
	for i := uint64(0); i < 100; i++ {
		_, ok := tr.Get(th, i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v want %v", i, ok, want)
		}
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	const n = 2000
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(th, i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if !tr.Delete(th, i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if got := tr.Len(th); got != 0 {
		t.Fatalf("Len after delete-all = %d", got)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	// Tree must remain usable.
	for i := uint64(0); i < n; i += 7 {
		if err := tr.Insert(th, i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	for i := uint64(0); i < 1000; i++ {
		if err := tr.Insert(th, i*3, i); err != nil { // keys 0,3,...,2997
			t.Fatal(err)
		}
	}
	var got []uint64
	tr.Scan(th, 100, 200, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	var want []uint64
	for k := uint64(102); k <= 198; k += 3 {
		want = append(want, k)
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	for i := uint64(0); i < 100; i++ {
		tr.Insert(th, i, i)
	}
	n := 0
	tr.Scan(th, 0, 99, func(k, v uint64) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("scan visited %d, want 10", n)
	}
}

func TestScanFullKeyspaceBounds(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	keys := []uint64{0, 1, 1 << 32, ^uint64(0) - 1, ^uint64(0)}
	for _, k := range keys {
		if err := tr.Insert(th, k, k^0xff); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	tr.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
		if v != k^0xff {
			t.Errorf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(keys))
	}
}

// TestClosedTreeIsCollected: a tree nobody references is garbage at the next
// collection, with its pool and arena, even after it has scanned. A sync.Pool
// held by the tree would fail this: the runtime lists every used sync.Pool and
// keeps it, and so the tree, alive for two more collections.
func TestClosedTreeIsCollected(t *testing.T) {
	pool := func() weak.Pointer[pmem.Pool] {
		p := pmem.New(pmem.Config{Size: 1 << 20})
		th := p.NewThread()
		tr, err := New(p, th, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 100; i++ {
			tr.Insert(th, i, i)
		}
		tr.Scan(th, 0, 100, func(k, v uint64) bool { return true })
		return weak.Make(p)
	}()
	runtime.GC()
	if pool.Value() != nil {
		t.Fatal("a dropped tree's pool survived a collection")
	}
}

// oracleCheck runs an op tape against the tree and a map, verifying every
// response: five inserts and two deletes in ten operations.
func oracleCheck(t *testing.T, tr *BTree, th *pmem.Thread, rng *rand.Rand, nOps int, keySpace uint64) {
	t.Helper()
	oracleCheckMix(t, tr, th, rng, nOps, keySpace, 5, 2)
}

// oracleCheckMix is oracleCheck with ins inserts and del deletes in ten
// operations, the rest lookups and bounded scans.
func oracleCheckMix(t *testing.T, tr *BTree, th *pmem.Thread, rng *rand.Rand, nOps int, keySpace uint64, ins, del int) {
	t.Helper()
	oracle := map[uint64]uint64{}
	for op := 0; op < nOps; op++ {
		k := rng.Uint64() % keySpace
		switch r := rng.Intn(10); {
		case r < ins:
			v := rng.Uint64()
			if err := tr.Insert(th, k, v); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		case op%64 == 0: // a short scan: bounds and content against the map
			hi := k + keySpace/50
			want := 0
			for ok := range oracle {
				if ok >= k && ok <= hi {
					want++
				}
			}
			got := 0
			tr.Scan(th, k, hi, func(sk, sv uint64) bool {
				if v, ok := oracle[sk]; !ok || v != sv || sk < k || sk > hi {
					t.Fatalf("op %d: Scan(%d, %d) returned (%d, %d), oracle (%d, %v)", op, k, hi, sk, sv, v, ok)
				}
				got++
				return true
			})
			if got != want {
				t.Fatalf("op %d: Scan(%d, %d) returned %d keys, oracle has %d", op, k, hi, got, want)
			}
		case r < ins+del:
			_, want := oracle[k]
			if got := tr.Delete(th, k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(oracle, k)
		default: // get
			want, wantOK := oracle[k]
			got, ok := tr.Get(th, k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, k, got, ok, want, wantOK)
			}
		}
	}
	if got, want := tr.Len(th), len(oracle); got != want {
		t.Fatalf("Len = %d, oracle %d", got, want)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	// Full scan must equal the sorted oracle.
	var prev uint64
	first := true
	n := 0
	tr.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("scan unsorted: %d after %d", k, prev)
		}
		prev, first = k, false
		if want, ok := oracle[k]; !ok || want != v {
			t.Fatalf("scan saw (%d,%d), oracle (%d,%v)", k, v, want, ok)
		}
		n++
		return true
	})
	if n != len(oracle) {
		t.Fatalf("scan visited %d, oracle has %d", n, len(oracle))
	}
}

// TestOracleDeleteHeavy runs as many deletes as inserts over a small key
// space, so that leaves are mostly tombstones and nearly every insert lands
// in one, shifts into one or splits a leaf that has none left — in every
// search mode a boxed tree has.
func TestOracleDeleteHeavy(t *testing.T) {
	for name, opts := range map[string]Options{
		"Default":      {},
		"SmallNodes":   {NodeSize: 128},
		"BinarySearch": {BinarySearch: true},
		"LeafLocks":    {LeafLocks: true},
		"LoggedSplit":  {LoggedSplit: true},
	} {
		t.Run(name, func(t *testing.T) {
			tr, th := newTestTree(t, opts)
			oracleCheckMix(t, tr, th, rand.New(rand.NewSource(11)), 30000, 1500, 4, 4)
			if tombs, _ := tombstoneCensus(tr, th); tombs == 0 {
				t.Fatal("the tape left no tombstone")
			}
		})
	}
}

func TestOracleDenseKeys(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	oracleCheck(t, tr, th, rand.New(rand.NewSource(1)), 20000, 500)
}

func TestOracleSparseKeys(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	oracleCheck(t, tr, th, rand.New(rand.NewSource(2)), 20000, 1<<40)
}

func TestOracleSmallNodes(t *testing.T) {
	tr, th := newTestTree(t, Options{NodeSize: 128})
	oracleCheck(t, tr, th, rand.New(rand.NewSource(3)), 10000, 2000)
}

func TestOracleLargeNodes(t *testing.T) {
	tr, th := newTestTree(t, Options{NodeSize: 4096})
	oracleCheck(t, tr, th, rand.New(rand.NewSource(4)), 10000, 2000)
}

func TestOracleBinarySearchMode(t *testing.T) {
	tr, th := newTestTree(t, Options{BinarySearch: true})
	oracleCheck(t, tr, th, rand.New(rand.NewSource(5)), 10000, 2000)
}

func TestOracleLoggedSplit(t *testing.T) {
	tr, th := newTestTree(t, Options{LoggedSplit: true})
	oracleCheck(t, tr, th, rand.New(rand.NewSource(6)), 10000, 2000)
}

func TestOracleLeafLocks(t *testing.T) {
	tr, th := newTestTree(t, Options{LeafLocks: true})
	oracleCheck(t, tr, th, rand.New(rand.NewSource(7)), 10000, 2000)
}

// TestOracleInlineValues uses distinct values derived from keys, honouring
// the InlineValues uniqueness contract (the oracle uses random values, so we
// run a dedicated tape here).
func TestOracleInlineValues(t *testing.T) {
	tr, th := newTestTree(t, Options{InlineValues: true})
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(8))
	val := func(k uint64, gen int) uint64 { return k ^ uint64(gen)<<48 ^ 0xABCD }
	gen := map[uint64]int{}
	for op := 0; op < 15000; op++ {
		k := rng.Uint64()%2000 + 1
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			gen[k]++
			v := val(k, gen[k])
			if err := tr.Insert(th, k, v); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		case 5, 6:
			_, want := oracle[k]
			if got := tr.Delete(th, k); got != want {
				t.Fatalf("Delete(%d) = %v want %v", k, got, want)
			}
			delete(oracle, k)
		default:
			want, wantOK := oracle[k]
			got, ok := tr.Get(th, k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", k, got, ok, want, wantOK)
			}
		}
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(th); got != len(oracle) {
		t.Fatalf("Len = %d oracle %d", got, len(oracle))
	}
}

func TestInlineValuesRejectZero(t *testing.T) {
	tr, th := newTestTree(t, Options{InlineValues: true})
	if err := tr.Insert(th, 1, 0); err == nil {
		t.Fatal("zero value accepted in InlineValues mode")
	}
}

// TestCrashInlineValues re-runs the enumerated insert/delete crash check in
// InlineValues mode: the commit protocol must hold without boxing too.
func TestCrashInlineValues(t *testing.T) {
	opts := Options{InlineValues: true}
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	for i := uint64(1); i <= 10; i++ {
		tr.Insert(th, i*10, i*10+1)
		committed[i*10] = i*10 + 1
	}
	p.StartCrashLog()
	tr.Insert(th, 45, 46)
	tr.Insert(th, 50, 999) // in-place inline upsert
	tr.Delete(th, 80)
	delete(committed, 50)
	delete(committed, 80)
	for cp, img := range p.CrashImages(rand.New(rand.NewSource(12))) {
		ith := img.NewThread()
		tr2, err := Open(img, ith, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range committed {
			if got, ok := tr2.Get(ith, k); !ok || got != v {
				t.Fatalf("%v: Get(%d) = %d,%v", cp, k, got, ok)
			}
		}
		if v, ok := tr2.Get(ith, 45); ok && v != 46 {
			t.Fatalf("%v: torn inline insert %d", cp, v)
		}
		if v, ok := tr2.Get(ith, 50); !ok || (v != 51 && v != 999) {
			t.Fatalf("%v: torn inline upsert (%d,%v)", cp, v, ok)
		}
		if v, ok := tr2.Get(ith, 80); ok && v != 81 {
			t.Fatalf("%v: torn inline delete %d", cp, v)
		}
		if err := tr2.Recover(ith); err != nil {
			t.Fatal(err)
		}
		if err := tr2.CheckInvariants(ith); err != nil {
			t.Fatalf("%v: %v", cp, err)
		}
	}
}

// TestQuickRandomTapes drives random op tapes through testing/quick.
func TestQuickRandomTapes(t *testing.T) {
	f := func(seed int64, dense bool) bool {
		tr, th := newTestTree(t, Options{NodeSize: 256})
		space := uint64(1 << 40)
		if dense {
			space = 300
		}
		oracleCheck(t, tr, th, rand.New(rand.NewSource(seed)), 3000, space)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenExistingTree(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 16 << 20})
	th := p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(th, i, i*7)
	}
	// Re-open a second handle on the same pool (simulates restart).
	tr2, err := Open(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		if v, ok := tr2.Get(th, i); !ok || v != i*7 {
			t.Fatalf("reopened Get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestOpenMissingTree(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 20})
	th := p.NewThread()
	if _, err := Open(p, th, Options{}); err == nil {
		t.Fatal("Open on empty pool succeeded")
	}
}

func TestBadOptions(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 1 << 20})
	th := p.NewThread()
	for _, opts := range []Options{
		{NodeSize: 100},
		{NodeSize: 96},
		{RootSlot: 9},
		{LoggedSplit: true, RootSlot: 4},
	} {
		if _, err := New(p, th, opts); err == nil {
			t.Errorf("New(%+v) succeeded, want error", opts)
		}
	}
}

func TestArenaExhaustion(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 16 << 10})
	th := p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for i := uint64(0); i < 10000; i++ {
		if err := tr.Insert(th, i, i); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("no error from exhausted arena")
	}
	// The tree must remain consistent and readable after the failure.
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumMergesLeaves(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	const n = 3000
	for i := uint64(0); i < n; i++ {
		tr.Insert(th, i, i)
	}
	// Delete most keys, leaving sparse leaves, and a whole stretch, leaving
	// leaves of nothing but tombstones.
	kept := 0
	for i := uint64(0); i < n; i++ {
		if i%10 != 0 || i >= 1000 && i < 1200 {
			tr.Delete(th, i)
		} else {
			kept++
		}
	}
	leavesBefore := countLeaves(tr, th)
	if tombs, deadLeaves := tombstoneCensus(tr, th); tombs != n-kept || deadLeaves < 5 {
		t.Fatalf("before Vacuum: %d tombstones (want %d), %d leaves of nothing else (want some)", tombs, n-kept, deadLeaves)
	}
	if err := tr.Vacuum(th); err != nil {
		t.Fatal(err)
	}
	leavesAfter := countLeaves(tr, th)
	if leavesAfter >= leavesBefore {
		t.Errorf("Vacuum did not shrink leaf chain: %d -> %d", leavesBefore, leavesAfter)
	}
	// Compacted, an all-tombstone leaf is an empty one, and fits into any
	// neighbour: none survives but a parent's leftmost child.
	if tombs, _ := tombstoneCensus(tr, th); tombs != 0 {
		t.Errorf("Vacuum left %d tombstones", tombs)
	}
	empty := 0
	for l := tr.levelHeads(th)[0]; l.valid(); l = tr.sibling(th, l) {
		if tr.count(th, l) == 0 {
			if p, _ := tr.findParentEntry(th, l); p.valid() {
				empty++
			}
		}
	}
	if empty != 0 {
		t.Errorf("Vacuum left %d mergeable empty leaves", empty)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i += 10 {
		v, ok := tr.Get(th, i)
		if want := i < 1000 || i >= 1200; ok != want || ok && v != i {
			t.Fatalf("post-vacuum Get(%d) = %d,%v", i, v, ok)
		}
	}
	if got := tr.Len(th); got != kept {
		t.Fatalf("post-vacuum Len = %d, want %d", got, kept)
	}
}

// tombstoneCensus counts the tombstoned slots of the leaf level, and the
// leaves that hold tombstones and no live entry.
func tombstoneCensus(tr *BTree, th *pmem.Thread) (tombs, deadLeaves int) {
	for l := tr.levelHeads(th)[0]; l.valid(); l = tr.sibling(th, l) {
		cnt, dead := tr.count(th, l), 0
		for i := 0; i < cnt; i++ {
			if tr.dead(tr.ptrAt(th, l, i)) {
				dead++
			}
		}
		tombs += dead
		if dead > 0 && dead == cnt {
			deadLeaves++
		}
	}
	return tombs, deadLeaves
}

func countLeaves(tr *BTree, th *pmem.Thread) int {
	c := 0
	for n := tr.levelHeads(th)[0]; n.valid(); n = tr.sibling(th, n) {
		c++
	}
	return c
}

func TestRecoverOnCleanTreeIsNoop(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	for i := uint64(0); i < 2000; i++ {
		tr.Insert(th, i, i)
	}
	if err := tr.Recover(th); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(th); got != 2000 {
		t.Fatalf("Len after Recover = %d", got)
	}
}

func TestMultipleTreesOnePool(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 32 << 20})
	th := p.NewThread()
	t1, err := New(p, th, Options{RootSlot: 0})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := New(p, th, Options{RootSlot: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		t1.Insert(th, i, i)
		t2.Insert(th, i, i*2)
	}
	for i := uint64(0); i < 1000; i++ {
		if v, _ := t1.Get(th, i); v != i {
			t.Fatalf("tree1 Get(%d) = %d", i, v)
		}
		if v, _ := t2.Get(th, i); v != i*2 {
			t.Fatalf("tree2 Get(%d) = %d", i, v)
		}
	}
}

// TestFlushCountPerInsert sanity-checks the paper's in-text claim that a
// 512 B node FAST insert needs few flushes (4.2 average in the paper; worst
// case 8 lines + box + commit).
func TestFlushCountPerInsert(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(th, i*2, i) // warm up
	}
	th.Stats = pmem.Stats{}
	const n = 1000
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		tr.Insert(th, rng.Uint64()%100000*2+1, 1)
	}
	avg := float64(th.Stats.FlushedLines) / n
	if avg < 1.5 || avg > 12 {
		t.Errorf("avg flushed lines per insert = %.2f, want plausible [1.5, 12]", avg)
	}
	t.Logf("avg flushed lines per insert: %.2f", avg)
}
