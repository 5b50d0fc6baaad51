package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
)

// The concurrency suite exercises §IV of the paper: lock-free searches run
// against concurrent FAST shifts and FAIR splits and must never miss a key
// that is stably present, never fabricate a key that was never inserted, and
// never return a torn value. Run with -race.

func TestConcurrentDisjointInserts(t *testing.T) {
	tr, _ := newTestTree(t, Options{NodeSize: 256})
	const (
		goroutines = 8
		perG       = 3000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tr.Pool().NewThread()
			for i := 0; i < perG; i++ {
				k := uint64(g*perG + i)
				if err := tr.Insert(th, k, k*2); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	th := tr.Pool().NewThread()
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < goroutines*perG; k++ {
		if v, ok := tr.Get(th, k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestConcurrentOverlappingUpserts(t *testing.T) {
	tr, _ := newTestTree(t, Options{NodeSize: 256})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tr.Pool().NewThread()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4000; i++ {
				k := rng.Uint64() % 1000
				if err := tr.Insert(th, k, k+100); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	th := tr.Pool().NewThread()
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	n := 0
	tr.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
		if v != k+100 {
			t.Errorf("key %d has value %d", k, v)
		}
		n++
		return true
	})
	if n > 1000 {
		t.Errorf("scan saw %d keys, max possible 1000", n)
	}
}

// TestLockFreeSearchDuringInserts: stable keys (inserted before the readers
// start, never touched again) must be found by every lock-free search while
// writers churn interleaved keys and force splits.
func TestLockFreeSearchDuringInserts(t *testing.T) {
	tr, th0 := newTestTree(t, Options{NodeSize: 256})
	const stable = 2000
	for i := uint64(0); i < stable; i++ {
		if err := tr.Insert(th0, i*10, i); err != nil { // keys 0,10,20,...
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			th := tr.Pool().NewThread()
			rng := rand.New(rand.NewSource(int64(g + 100)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Uint64()%(stable*10) | 1 // odd keys never collide with stable
				if err := tr.Insert(th, k, k); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	var readers sync.WaitGroup
	var lookups atomic.Int64
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			th := tr.Pool().NewThread()
			rng := rand.New(rand.NewSource(int64(g + 200)))
			for i := 0; i < 20000; i++ {
				k := (rng.Uint64() % stable) * 10
				v, ok := tr.Get(th, k)
				if !ok || v != k/10 {
					t.Errorf("lock-free Get(%d) = %d,%v want %d,true", k, v, ok, k/10)
					return
				}
				lookups.Add(1)
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if lookups.Load() == 0 {
		t.Fatal("no lookups ran")
	}
	if err := tr.CheckInvariants(tr.Pool().NewThread()); err != nil {
		t.Fatal(err)
	}
}

// TestLockFreeSearchDuringDeletes: readers hammer keys that are never
// deleted while writers delete the interleaved ones. On a boxed tree a delete
// shifts nothing — the interleaved slots turn into tombstones under the
// readers — so the left shift under right-to-left scans is
// TestHoleShiftsNeverHideAKey's to exercise.
func TestLockFreeSearchDuringDeletes(t *testing.T) {
	tr, th0 := newTestTree(t, Options{NodeSize: 256})
	const n = 20000
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(th0, i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	// Deleters remove odd keys.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tr.Pool().NewThread()
			for i := uint64(g*2 + 1); i < n; i += 4 {
				tr.Delete(th, i)
			}
		}(g)
	}
	// Readers check even keys.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tr.Pool().NewThread()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20000; i++ {
				k := (rng.Uint64() % (n / 2)) * 2
				if v, ok := tr.Get(th, k); !ok || v != k+1 {
					t.Errorf("Get(%d) = %d,%v want %d,true", k, v, ok, k+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	th := tr.Pool().NewThread()
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		_, ok := tr.Get(th, i)
		if want := i%2 == 0; ok != want {
			t.Fatalf("Get(%d) present=%v want %v", i, ok, want)
		}
	}
}

// TestHoleShiftsNeverHideAKey: anchor keys that are always present, and two
// writers toggling the keys between them, so that the anchors are carried
// right into tombstones and left out of them all the time, in leaves whose
// direction flips with every other insert. One reader Gets anchors — never
// absent, never another key's value — and one Scans ranges — every anchor of
// the range, once, in order. Run with -race.
func TestHoleShiftsNeverHideAKey(t *testing.T) {
	tr, th0 := newTestTree(t, Options{})
	const (
		span    = 1024 // keys 0..span-1: some dozens of leaves
		stride  = 4    // anchors are the multiples of stride
		writers = 2
	)
	anchorVal := func(k uint64) uint64 { return k*2654435761 + 1 }
	for k := uint64(0); k < span; k += stride {
		if err := tr.Insert(th0, k, anchorVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Half of the keys in between start out present, so the leaves are full
	// enough for a hole to lie lines away from an insertion point.
	for k := uint64(0); k < span; k++ {
		if k%stride != 0 && k%2 == 0 {
			if err := tr.Insert(th0, k, ^k); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 3 s keeps tier-1 (which does not pass -short) on its budget; the deep
	// CI job buys the long stress with -count=10.
	d := 3 * time.Second
	if testing.Short() {
		d = time.Second
	}
	deadline := time.Now().Add(d)

	var stop atomic.Bool
	var wwg, rwg sync.WaitGroup
	var toggles, leftShifts atomic.Int64
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			th := tr.Pool().NewThread()
			defer th.Release()
			rng := rand.New(rand.NewSource(int64(w)))
			// Writer w owns the in-between keys of its parity.
			present := map[uint64]bool{}
			for k := uint64(0); k < span; k++ {
				if k%stride != 0 && k%2 == uint64(w) {
					present[k] = k%2 == 0
				}
			}
			n := int64(0)
			for ; !t.Failed() && (n%256 != 0 || time.Now().Before(deadline)); n++ {
				k := rng.Uint64() % span
				if k%stride == 0 || k%2 != uint64(w) {
					continue
				}
				if present[k] {
					if !tr.Delete(th, k) {
						t.Errorf("writer %d: Delete(%d) missed a key it had inserted", w, k)
						return
					}
				} else {
					leaf := tr.descendToLeaf(th, k)
					if err := tr.Insert(th, k, ^k); err != nil {
						t.Error(err)
						return
					}
					if tr.switchCtr(th, leaf)%2 == 1 {
						leftShifts.Add(1) // a racy peek; only its being non-zero matters
					}
				}
				present[k] = !present[k]
			}
			toggles.Add(n)
		}(w)
	}
	var gets, scans atomic.Int64
	rwg.Add(2)
	go func() {
		defer rwg.Done()
		th := tr.Pool().NewThread()
		defer th.Release()
		rng := rand.New(rand.NewSource(100))
		n := int64(0)
		for ; !stop.Load() && !t.Failed(); n++ {
			k := rng.Uint64() % (span / stride) * stride
			if v, ok := tr.Get(th, k); !ok || v != anchorVal(k) {
				t.Errorf("Get(%d) = %#x,%v: an anchor went missing or took another key's value", k, v, ok)
			}
		}
		gets.Add(n)
	}()
	go func() {
		defer rwg.Done()
		th := tr.Pool().NewThread()
		defer th.Release()
		rng := rand.New(rand.NewSource(101))
		n := int64(0)
		for ; !stop.Load() && !t.Failed(); n++ {
			lo := rng.Uint64() % span
			hi := min(lo+rng.Uint64()%128, span-1)
			next := (lo + stride - 1) / stride * stride // the anchor the scan owes next
			tr.Scan(th, lo, hi, func(k, v uint64) bool {
				if k%stride != 0 {
					if v != ^k {
						t.Errorf("Scan(%d, %d) returned (%d, %#x): another key's value", lo, hi, k, v)
					}
					return true
				}
				if k != next || v != anchorVal(k) {
					t.Errorf("Scan(%d, %d) returned anchor (%d, %#x), want anchor %d next", lo, hi, k, v, next)
				}
				next = k + stride
				return true
			})
			if next <= hi {
				t.Errorf("Scan(%d, %d) stopped short of anchor %d", lo, hi, next)
			}
		}
		scans.Add(n)
	}()
	wwg.Wait()
	stop.Store(true)
	rwg.Wait()

	if err := tr.CheckInvariants(th0); err != nil {
		t.Fatal(err)
	}
	if leftShifts.Load() == 0 {
		t.Fatal("no insert left its leaf in delete direction: the test exercised no left shift into a hole")
	}
	t.Logf("%d toggle attempts (%d inserts seen leaving a leaf odd) under %d Gets and %d Scans",
		toggles.Load(), leftShifts.Load(), gets.Load(), scans.Load())
}

// TestConcurrentMixed is the Figure 7(c) shape: every writer alternates
// 4 inserts / 16 searches / 1 delete while readers scan.
func TestConcurrentMixed(t *testing.T) {
	tr, th0 := newTestTree(t, Options{NodeSize: 256})
	const stable = 5000
	for i := uint64(0); i < stable; i++ {
		tr.Insert(th0, i*4, i) // stable keys ≡ 0 mod 4
	}
	var wg sync.WaitGroup
	var inserted sync.Map
	const churners = 6
	// Each churner owns a disjoint odd-key subspace so its map bookkeeping
	// is race-free; the tree still sees full cross-thread interleaving.
	churnKey := func(g int, r uint64) uint64 {
		return (r%stable)*4*churners + uint64(2*g+1)
	}
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tr.Pool().NewThread()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			for round := 0; round < 500; round++ {
				for i := 0; i < 4; i++ {
					k := churnKey(g, rng.Uint64())
					if err := tr.Insert(th, k, k); err != nil {
						t.Error(err)
						return
					}
					inserted.Store(k, true)
				}
				for i := 0; i < 16; i++ {
					k := (rng.Uint64() % stable) * 4
					if v, ok := tr.Get(th, k); !ok || v != k/4 {
						t.Errorf("Get(%d) = %d,%v", k, v, ok)
						return
					}
				}
				k := churnKey(g, rng.Uint64())
				tr.Delete(th, k)
				inserted.Delete(k)
			}
		}(g)
	}
	// A scanner validates ordering and no fabricated keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := tr.Pool().NewThread()
		for round := 0; round < 30; round++ {
			var prev uint64
			first := true
			tr.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
				if !first && k <= prev {
					t.Errorf("scan unsorted: %d after %d", k, prev)
					return false
				}
				prev, first = k, false
				if k%4 == 0 && k/4 < stable {
					if v != k/4 {
						t.Errorf("stable key %d value %d", k, v)
						return false
					}
				} else if k%2 == 0 {
					t.Errorf("fabricated key %d", k)
					return false
				}
				return true
			})
		}
	}()
	wg.Wait()
	th := tr.Pool().NewThread()
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	// Everything recorded as inserted (and not later deleted) must exist.
	inserted.Range(func(key, _ any) bool {
		k := key.(uint64)
		if _, ok := tr.Get(th, k); !ok {
			// The key may have been deleted by another goroutine's
			// delete race on the same key; re-check the map.
			if _, still := inserted.Load(k); still {
				t.Errorf("inserted key %d missing", k)
			}
		}
		return true
	})
}

func TestConcurrentLeafLockMode(t *testing.T) {
	tr, th0 := newTestTree(t, Options{NodeSize: 256, LeafLocks: true})
	const stable = 3000
	for i := uint64(0); i < stable; i++ {
		tr.Insert(th0, i*2, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tr.Pool().NewThread()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				if g%2 == 0 {
					k := rng.Uint64()%(stable*2) | 1
					if err := tr.Insert(th, k, k); err != nil {
						t.Error(err)
						return
					}
				} else {
					k := (rng.Uint64() % stable) * 2
					if v, ok := tr.Get(th, k); !ok || v != k/2 {
						t.Errorf("Get(%d) = %d,%v", k, v, ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.CheckInvariants(tr.Pool().NewThread()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRootGrowth makes many goroutines race through repeated root
// splits from a tiny tree.
func TestConcurrentRootGrowth(t *testing.T) {
	tr, _ := newTestTree(t, Options{NodeSize: 128}) // 3 entries per node
	var wg sync.WaitGroup
	const goroutines = 8
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tr.Pool().NewThread()
			for i := 0; i < 2000; i++ {
				k := uint64(i*goroutines + g)
				if err := tr.Insert(th, k, k+7); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	th := tr.Pool().NewThread()
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000*goroutines; k++ {
		if v, ok := tr.Get(th, k); !ok || v != k+7 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if h := tr.Height(th); h < 4 {
		t.Errorf("height %d, want deep tree", h)
	}
}

// TestGetBatchDuringSplits: batch lookups spanning three trees race writers
// that insert (splitting nodes and growing the trees) and delete. A batch
// interleaves its descents hop by hop, so a descent can stand still on a
// node while a writer splits it; every key nobody writes must still be found
// with its own value, and a written key is either absent or holds the one
// value its writer stores.
func TestGetBatchDuringSplits(t *testing.T) {
	const (
		trees  = 3
		stable = 2000    // keys 0, 1<<16, 2<<16, ... in every tree; never written
		grown  = 100_000 // fresh keys a writer inserts before it turns to churn
	)
	batches := 10000
	if testing.Short() {
		batches = 1000
	}
	var ts [trees]*BTree
	for i := range ts {
		tr, th := newTestTree(t, Options{NodeSize: 256})
		for k := uint64(0); k < stable; k++ {
			if err := tr.Insert(th, k<<16, k+uint64(i)<<32); err != nil {
				t.Fatal(err)
			}
		}
		ts[i] = tr
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	var writes atomic.Int64
	for i, tr := range ts {
		writers.Add(1)
		go func(i int, tr *BTree) {
			defer writers.Done()
			th := tr.Pool().NewThread()
			rng := rand.New(rand.NewSource(int64(i + 300)))
			var mine []uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Fresh keys land all over the tree and split it; past
				// grown the writer deletes and reinserts its own.
				var k uint64
				if len(mine) < grown {
					if k = rng.Uint64() % (stable << 16); k&0xffff == 0 {
						continue
					}
					mine = append(mine, k)
				} else if k = mine[rng.Intn(len(mine))]; rng.Intn(2) == 0 {
					tr.Delete(th, k)
					writes.Add(1)
					continue
				}
				if err := tr.Insert(th, k, k*3+1); err != nil {
					t.Error(err)
					return
				}
				writes.Add(1)
			}
		}(i, tr)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			var ths [trees]*pmem.Thread
			for i, tr := range ts {
				ths[i] = tr.Pool().NewThread()
			}
			rng := rand.New(rand.NewSource(int64(g + 400)))
			ls := make([]Lookup, 0, 48)
			for b := 0; b < batches; b++ {
				ls = ls[:0]
				for n := 1 + rng.Intn(48); n > 0; n-- {
					i := rng.Intn(trees)
					k := rng.Uint64() % stable << 16
					if rng.Intn(4) == 0 {
						k |= rng.Uint64() & 0xffff // mostly absent
					}
					ls = append(ls, Lookup{Tree: ts[i], Th: ths[i], Key: k})
				}
				GetBatch(ls)
				for _, l := range ls {
					i := 0
					for ts[i] != l.Tree {
						i++
					}
					want := l.Key>>16 + uint64(i)<<32
					switch {
					case l.Key&0xffff == 0 && (!l.Found || l.Val != want):
						t.Errorf("tree %d: batch Get(%#x) = %d,%v, want %d,true", i, l.Key, l.Val, l.Found, want)
						return
					case l.Key&0xffff != 0 && l.Found && l.Val != l.Key*3+1:
						t.Errorf("tree %d: batch Get(%#x) = %d, never written", i, l.Key, l.Val)
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if w := writes.Load(); w < 1000 {
		t.Errorf("the writers made %d writes while the batches ran, want >= 1000", w)
	}
	for i, tr := range ts {
		if err := tr.CheckInvariants(tr.Pool().NewThread()); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
	}
}
