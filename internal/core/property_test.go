package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
)

// TestQuickRangeQueries: for random op tapes and random [lo, hi] windows,
// Scan must return exactly the oracle's keys in that window, sorted.
func TestQuickRangeQueries(t *testing.T) {
	f := func(seed int64) bool {
		tr, th := newTestTree(t, Options{NodeSize: 256})
		rng := rand.New(rand.NewSource(seed))
		oracle := map[uint64]uint64{}
		for op := 0; op < 3000; op++ {
			k := rng.Uint64() % 5000
			if rng.Intn(5) == 0 {
				tr.Delete(th, k)
				delete(oracle, k)
			} else {
				v := rng.Uint64()
				if err := tr.Insert(th, k, v); err != nil {
					t.Fatal(err)
				}
				oracle[k] = v
			}
		}
		for q := 0; q < 50; q++ {
			lo := rng.Uint64() % 5000
			hi := lo + rng.Uint64()%1000
			want := 0
			for k := range oracle {
				if k >= lo && k <= hi {
					want++
				}
			}
			got := 0
			prev := uint64(0)
			first := true
			bad := false
			tr.Scan(th, lo, hi, func(k, v uint64) bool {
				if k < lo || k > hi {
					bad = true
					return false
				}
				if !first && k <= prev {
					bad = true
					return false
				}
				if ov, ok := oracle[k]; !ok || ov != v {
					bad = true
					return false
				}
				prev, first = k, false
				got++
				return true
			})
			if bad || got != want {
				t.Logf("seed %d: range [%d,%d] got %d want %d bad=%v", seed, lo, hi, got, want, bad)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVacuumPreservesContent: Vacuum must never change the logical
// key/value content, whatever the delete pattern.
func TestQuickVacuumPreservesContent(t *testing.T) {
	f := func(seed int64, delMod uint8) bool {
		mod := uint64(delMod%9) + 2
		tr, th := newTestTree(t, Options{NodeSize: 256})
		oracle := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			k := rng.Uint64() % 10000
			if err := tr.Insert(th, k, k+3); err != nil {
				t.Fatal(err)
			}
			oracle[k] = k + 3
		}
		for k := range oracle {
			if k%mod != 0 {
				tr.Delete(th, k)
				delete(oracle, k)
			}
		}
		if tombs, _ := tombstoneCensus(tr, th); tombs == 0 {
			t.Logf("seed %d: the deletes left no tombstone", seed)
			return false
		}
		if err := tr.Vacuum(th); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(th); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if tombs, _ := tombstoneCensus(tr, th); tombs != 0 {
			t.Logf("seed %d: Vacuum left %d tombstones", seed, tombs)
			return false
		}
		if tr.Len(th) != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if got, ok := tr.Get(th, k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyFixOnWritePath: after a mid-operation crash, writers touching the
// damaged node repair it (§4.2 lazy recovery) without any eager Recover
// call, and reads stay correct throughout.
func TestLazyFixOnWritePath(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 4 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 20; i++ {
		tr.Insert(th, i*10, i)
		committed[i*10] = i
	}
	p.StartCrashLog()
	tr.Insert(th, 105, 1) // mid-node shift
	tr.Delete(th, 150)
	delete(committed, 150)

	rng := rand.New(rand.NewSource(31))
	for point := 1; point <= p.LogLen(); point += 3 {
		img := p.CrashImage(point, pmem.CrashRandom, rng)
		ith := img.NewThread()
		tr2, err := Open(img, ith, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// No Recover: write straight into the possibly-damaged region.
		for i := uint64(0); i < 30; i++ {
			if err := tr2.Insert(ith, 101+i*2, i); err != nil {
				t.Fatal(err)
			}
		}
		for k, v := range committed {
			if got, ok := tr2.Get(ith, k); !ok || got != v {
				t.Fatalf("point %d: committed Get(%d) = (%d,%v)", point, k, got, ok)
			}
		}
		for i := uint64(0); i < 30; i++ {
			if got, ok := tr2.Get(ith, 101+i*2); !ok || got != i {
				t.Fatalf("point %d: lazy-path Get(%d) = (%d,%v)", point, 101+i*2, got, ok)
			}
		}
		// The write path must have repaired every node it latched; a
		// delete pass over the same region then a full check proves
		// the damaged node is structurally sound again.
		for i := uint64(0); i < 30; i++ {
			tr2.Delete(ith, 101+i*2)
		}
		if err := tr2.Recover(ith); err != nil {
			t.Fatal(err)
		}
		if err := tr2.CheckInvariants(ith); err != nil {
			t.Fatalf("point %d: %v", point, err)
		}
	}
}

// TestSwitchCounterParity: the scan-direction flag follows the shifts, not
// the operations. A delete shifts nothing and leaves the parity alone; an
// insert leaves it even when it reused a slot in place, shifted right into a
// tombstone or shifted to the terminator, and odd when it shifted left into a
// tombstone.
func TestSwitchCounterParity(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	for i := uint64(0); i < 20; i++ {
		tr.Insert(th, i*10, i+1)
	}
	leaf := tr.descendToLeaf(th, 0)
	parity := func() uint64 { return tr.switchCtr(th, leaf) % 2 }
	step := func(what string, want uint64, op func()) {
		t.Helper()
		op()
		if got := parity(); got != want {
			t.Fatalf("switch counter parity %d after %s, want %d", got, what, want)
		}
		if err := tr.CheckInvariants(th); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	step("tail inserts", 0, func() {})
	step("a delete on an even leaf", 0, func() { tr.Delete(th, 20) })
	// Slot 2 is a tombstone; 145 belongs after slot 14: the hole is three
	// lines to the left and the terminator two to the right, so the tail wins.
	step("a tail insert past a far tombstone", 0, func() { tr.Insert(th, 145, 1) })
	// 75 belongs after slot 7: hole two lines left, terminator four right.
	step("a left-hole insert", 1, func() { tr.Insert(th, 75, 1) })
	step("a delete on an odd leaf", 1, func() { tr.Delete(th, 100) })
	step("an in-place re-insert", 0, func() { tr.Insert(th, 100, 2) })
	step("a delete", 0, func() { tr.Delete(th, 110) })
	step("a left-hole insert", 1, func() { tr.Insert(th, 135, 1) })
	step("a delete", 1, func() { tr.Delete(th, 170) })
	// 5 belongs after slot 0; the hole sits lines to the right of it.
	step("a right-hole insert", 0, func() { tr.Insert(th, 5, 1) })
	step("a delete", 0, func() { tr.Delete(th, 60) })
	step("a left-hole insert", 1, func() { tr.Insert(th, 95, 1) })
	step("a tail insert", 0, func() { tr.Insert(th, 500, 1) })
	if got, want := tr.Len(th), 22; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestDuplicatePointerInvariantUnderLock verifies that between operations a
// quiescent node never exposes duplicate adjacent pointers (at most one pair
// can exist transiently *during* an op; zero after).
func TestDuplicatePointerInvariantUnderLock(t *testing.T) {
	tr, th := newTestTree(t, Options{NodeSize: 256})
	rng := rand.New(rand.NewSource(17))
	for op := 0; op < 5000; op++ {
		k := rng.Uint64() % 3000
		if rng.Intn(3) == 0 {
			tr.Delete(th, k)
		} else if err := tr.Insert(th, k, k+1); err != nil {
			t.Fatal(err)
		}
		if op%500 == 0 {
			if err := tr.CheckInvariants(th); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
}

// TestBoxedValueStability: without InlineValues, a reader holding a value
// box across a concurrent upsert sees either the old or new value (the box
// is updated in place, never reallocated).
func TestBoxedValueStability(t *testing.T) {
	tr, th := newTestTree(t, Options{})
	tr.Insert(th, 5, 100)
	for i := uint64(0); i < 100; i++ {
		tr.Insert(th, 5, 100+i)
		v, ok := tr.Get(th, 5)
		if !ok || v != 100+i {
			t.Fatalf("upsert %d: got (%d,%v)", i, v, ok)
		}
	}
	if n := tr.Len(th); n != 1 {
		t.Fatalf("Len = %d", n)
	}
}
