package fptree

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pmem"
)

func newTree(t testing.TB, opts Options) (*Tree, *pmem.Thread) {
	t.Helper()
	p := pmem.New(pmem.Config{Size: 128 << 20})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr, th
}

func TestBasicOps(t *testing.T) {
	tr, th := newTree(t, Options{})
	if _, ok := tr.Get(th, 1); ok {
		t.Error("empty tree found key")
	}
	for i := uint64(0); i < 5000; i++ {
		if err := tr.Insert(th, i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5000; i++ {
		if v, ok := tr.Get(th, i*2); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i*2, v, ok)
		}
		if _, ok := tr.Get(th, i*2+1); ok {
			t.Fatalf("found missing key %d", i*2+1)
		}
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestOracle(t *testing.T) {
	tr, th := newTree(t, Options{LeafSize: 256})
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20000; op++ {
		k := rng.Uint64() % 1200
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			v := rng.Uint64()
			if err := tr.Insert(th, k, v); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		case 5, 6:
			_, want := oracle[k]
			if got := tr.Delete(th, k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v want %v", op, k, got, want)
			}
			delete(oracle, k)
		default:
			want, wantOK := oracle[k]
			got, ok := tr.Get(th, k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, k, got, ok, want, wantOK)
			}
		}
	}
	if tr.Len(th) != len(oracle) {
		t.Fatalf("Len = %d oracle %d", tr.Len(th), len(oracle))
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestScanSortedAcrossUnsortedLeaves(t *testing.T) {
	tr, th := newTree(t, Options{})
	rng := rand.New(rand.NewSource(2))
	m := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		k := rng.Uint64() % 50000
		tr.Insert(th, k, k)
		m[k] = true
	}
	var prev uint64
	first := true
	n := 0
	tr.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("scan unsorted: %d after %d", k, prev)
		}
		prev, first = k, false
		n++
		return true
	})
	if n != len(m) {
		t.Fatalf("scan saw %d, want %d", n, len(m))
	}
}

func TestRebuildInnerEqualsOriginal(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 128 << 20})
	th := p.NewThread()
	tr, err := New(p, th, Options{LeafSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	m := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 1000000
		tr.Insert(th, k, k+5)
		m[k] = k + 5
	}
	// Simulate restart: Open rebuilds the inner levels from the chain.
	tr2, err := Open(p, th, Options{LeafSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range m {
		if got, ok := tr2.Get(th, k); !ok || got != v {
			t.Fatalf("rebuilt Get(%d) = %d,%v", k, got, ok)
		}
	}
	if err := tr2.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
	// And it keeps working for writes.
	for i := uint64(0); i < 5000; i++ {
		if err := tr2.Insert(th, 2000000+i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr2.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestCrashLeafAtomicity(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, Options{LeafSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 9; i++ {
		tr.Insert(th, i*10, i)
		committed[i*10] = i
	}
	p.StartCrashLog()
	tr.Insert(th, 45, 99)  // plain insert
	tr.Insert(th, 20, 777) // out-of-place update
	tr.Delete(th, 70)
	oldTwenty := committed[20]
	oldSeventy := committed[70]
	delete(committed, 20)
	delete(committed, 70)
	rng := rand.New(rand.NewSource(4))
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		tr2, err := Open(img, ith, Options{LeafSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range committed {
			if got, ok := tr2.Get(ith, k); !ok || got != v {
				t.Fatalf("%v: Get(%d) = %d,%v want %d", cp, k, got, ok, v)
			}
		}
		if v, ok := tr2.Get(ith, 45); ok && v != 99 {
			t.Fatalf("%v: torn insert %d", cp, v)
		}
		if v, ok := tr2.Get(ith, 20); !ok || (v != oldTwenty && v != 777) {
			t.Fatalf("%v: upsert state (%d,%v)", cp, v, ok)
		}
		if v, ok := tr2.Get(ith, 70); ok && v != oldSeventy {
			t.Fatalf("%v: torn delete %d", cp, v)
		}
		if err := tr2.CheckInvariants(ith); err != nil {
			t.Fatalf("%v: %v", cp, err)
		}
	}
}

func TestCrashSplitMicroLog(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, Options{LeafSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 10; i++ { // leaf cap for 256B is 10
		tr.Insert(th, i*10, i)
		committed[i*10] = i
	}
	p.StartCrashLog()
	tr.Insert(th, 45, 99) // forces a split
	rng := rand.New(rand.NewSource(5))
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		tr2, err := Open(img, ith, Options{LeafSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range committed {
			if got, ok := tr2.Get(ith, k); !ok || got != v {
				t.Fatalf("%v: Get(%d) = %d,%v want %d", cp, k, got, ok, v)
			}
		}
		if err := tr2.CheckInvariants(ith); err != nil {
			t.Fatalf("%v: %v", cp, err)
		}
		if err := tr2.Insert(ith, 999, 1); err != nil {
			t.Fatal(err)
		}
		if v, ok := tr2.Get(ith, 999); !ok || v != 1 {
			t.Fatalf("%v: post-crash insert lost", cp)
		}
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tr, th0 := newTree(t, Options{LeafSize: 512})
	const stable = 3000
	for i := uint64(0); i < stable; i++ {
		tr.Insert(th0, i*2, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := tr.Pool().NewThread()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4000; i++ {
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
