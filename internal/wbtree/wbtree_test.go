package wbtree

import (
	"math/rand"
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

func TestUpsert(t *testing.T) {
	tr, th := newTree(t, Options{})
	tr.Insert(th, 9, 1)
	tr.Insert(th, 9, 2)
	if v, _ := tr.Get(th, 9); v != 2 {
		t.Fatalf("upsert: %d", v)
	}
	if tr.Len(th) != 1 {
		t.Fatalf("Len = %d", tr.Len(th))
	}
}

func TestOracle(t *testing.T) {
	tr, th := newTree(t, Options{NodeSize: 512})
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20000; op++ {
		k := rng.Uint64() % 1500
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
	if tr.Len(th) != len(oracle) {
		t.Fatalf("Len = %d oracle %d", tr.Len(th), len(oracle))
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	tr, th := newTree(t, Options{})
	for i := uint64(0); i < 2000; i++ {
		tr.Insert(th, i*5, i)
	}
	var got []uint64
	tr.Scan(th, 1000, 2000, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 201 {
		t.Fatalf("scan count %d want 201", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("scan unsorted")
		}
	}
}

func TestInsertFlushCount(t *testing.T) {
	tr, th := newTree(t, Options{})
	for i := uint64(0); i < 100; i++ {
		tr.Insert(th, i*7, i)
	}
	th.Stats = pmem.Stats{}
	tr.Insert(th, 3, 3) // no split
	if th.Stats.FlushCalls < 4 {
		t.Errorf("insert used %d flush calls, wB+-tree needs at least 4", th.Stats.FlushCalls)
	}
	t.Logf("flush calls per non-split insert: %d", th.Stats.FlushCalls)
}

func TestCrashInsertAtomicity(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, Options{NodeSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 20; i++ {
		tr.Insert(th, i*10, i)
		committed[i*10] = i
	}
	p.StartCrashLog()
	tr.Insert(th, 55, 555)
	tr.Delete(th, 30)
	old := committed[30]
	delete(committed, 30)
	rng := rand.New(rand.NewSource(2))
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		tr2, err := Open(img, ith, Options{NodeSize: 512}) // Open runs Recover
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range committed {
			if got, ok := tr2.Get(ith, k); !ok || got != v {
				t.Fatalf("%v: Get(%d) = %d,%v want %d", cp, k, got, ok, v)
			}
		}
		if v, ok := tr2.Get(ith, 55); ok && v != 555 {
			t.Fatalf("%v: torn insert %d", cp, v)
		}
		if v, ok := tr2.Get(ith, 30); ok && v != old {
			t.Fatalf("%v: torn delete %d", cp, v)
		}
		if err := tr2.CheckInvariants(ith); err != nil {
			t.Fatalf("%v: %v", cp, err)
		}
	}
}

func TestCrashSplit(t *testing.T) {
	opts := Options{NodeSize: 256} // 10 records per node: quick splits
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 10; i++ {
		tr.Insert(th, i*10, i)
		committed[i*10] = i
	}
	p.StartCrashLog()
	tr.Insert(th, 45, 99) // forces a root-leaf split
	rng := rand.New(rand.NewSource(3))
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		tr2, err := Open(img, ith, opts)
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
		// Post-crash writability.
		if err := tr2.Insert(ith, 999, 1); err != nil {
			t.Fatal(err)
		}
		if v, ok := tr2.Get(ith, 999); !ok || v != 1 {
			t.Fatalf("%v: post-crash insert lost", cp)
		}
	}
}

func TestDeepTree(t *testing.T) {
	tr, th := newTree(t, Options{NodeSize: 256})
	rng := rand.New(rand.NewSource(4))
	m := map[uint64]uint64{}
	for i := 0; i < 30000; i++ {
		k := rng.Uint64() % 100000
		tr.Insert(th, k, k+1)
		m[k] = k + 1
	}
	for k, v := range m {
		if got, ok := tr.Get(th, k); !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v", k, got, ok)
		}
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}
