package skiplist

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pmem"
)

func newList(t testing.TB) (*List, *pmem.Thread) {
	t.Helper()
	p := pmem.New(pmem.Config{Size: 64 << 20})
	th := p.NewThread()
	l, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l, th
}

func TestBasicOps(t *testing.T) {
	l, th := newList(t)
	if _, ok := l.Get(th, 1); ok {
		t.Error("empty list found key")
	}
	for i := uint64(0); i < 1000; i++ {
		if err := l.Insert(th, i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 1000; i++ {
		if v, ok := l.Get(th, i*2); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i*2, v, ok)
		}
		if _, ok := l.Get(th, i*2+1); ok {
			t.Fatalf("Get(%d) found missing key", i*2+1)
		}
	}
	if err := l.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestUpsertAndDelete(t *testing.T) {
	l, th := newList(t)
	l.Insert(th, 5, 1)
	l.Insert(th, 5, 2)
	if v, _ := l.Get(th, 5); v != 2 {
		t.Fatalf("upsert: got %d", v)
	}
	if l.Len(th) != 1 {
		t.Fatalf("Len = %d", l.Len(th))
	}
	if !l.Delete(th, 5) {
		t.Fatal("Delete failed")
	}
	if l.Delete(th, 5) {
		t.Fatal("double Delete succeeded")
	}
	if _, ok := l.Get(th, 5); ok {
		t.Fatal("deleted key found")
	}
}

func TestOracle(t *testing.T) {
	l, th := newList(t)
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20000; op++ {
		k := rng.Uint64() % 800
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			v := rng.Uint64()
			if err := l.Insert(th, k, v); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		case 5, 6:
			_, want := oracle[k]
			if got := l.Delete(th, k); got != want {
				t.Fatalf("Delete(%d) = %v want %v", k, got, want)
			}
			delete(oracle, k)
		default:
			want, wantOK := oracle[k]
			got, ok := l.Get(th, k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", k, got, ok, want, wantOK)
			}
		}
	}
	if l.Len(th) != len(oracle) {
		t.Fatalf("Len = %d oracle %d", l.Len(th), len(oracle))
	}
	if err := l.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	l, th := newList(t)
	for i := uint64(0); i < 500; i++ {
		l.Insert(th, i*3, i)
	}
	var got []uint64
	l.Scan(th, 30, 60, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60}
	if len(got) != len(want) {
		t.Fatalf("scan got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d want %d", i, got[i], want[i])
		}
	}
}

func TestCrashBottomListIsTruth(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
	th := p.NewThread()
	l, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 200; i++ {
		l.Insert(th, i, i+1)
		committed[i] = i + 1
	}
	p.StartCrashLog()
	l.Insert(th, 1000, 1)
	l.Delete(th, 50)
	rng := rand.New(rand.NewSource(2))
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		l2, err := Open(img, ith, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.CheckInvariants(ith); err != nil {
			t.Fatalf("%v: %v", cp, err)
		}
		for k, v := range committed {
			if k == 50 {
				continue // the in-flight delete's target
			}
			if got, ok := l2.Get(ith, k); !ok || got != v {
				t.Fatalf("%v: Get(%d) = %d,%v", cp, k, got, ok)
			}
		}
		// In-flight ops must be atomic.
		if v, ok := l2.Get(ith, 1000); ok && v != 1 {
			t.Fatalf("%v: torn insert value %d", cp, v)
		}
		if v, ok := l2.Get(ith, 50); ok && v != 51 {
			t.Fatalf("%v: torn delete value %d", cp, v)
		}
	}
}

// TestConcurrent races inserters of odd keys against readers of stable even
// keys, over many seeded rounds: a search that acts on a second read of a
// successor it has already judged misses a stable key or leaves a level
// unsorted only when a node lands between the two reads, which one round
// rarely shows. -short (and so the race run) takes 10 rounds.
func TestConcurrent(t *testing.T) {
	const stable = 2000
	rounds := 100
	if testing.Short() {
		rounds = 10
	}
	for round := range rounds {
		p := pmem.New(pmem.Config{Size: 4 << 20})
		th0 := p.NewThread()
		l, err := New(p, th0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < stable; i++ {
			l.Insert(th0, i*2, i)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				th := p.NewThread()
				rng := rand.New(rand.NewSource(int64(round*4 + g)))
				for i := 0; i < 3000; i++ {
					if g%2 == 0 {
						k := rng.Uint64()%(stable*2) | 1
						if err := l.Insert(th, k, k); err != nil {
							t.Error(err)
							return
						}
					} else {
						k := (rng.Uint64() % stable) * 2
						if v, ok := l.Get(th, k); !ok || v != k/2 {
							t.Errorf("round %d: Get(%d) = %d,%v", round, k, v, ok)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if err := l.CheckInvariants(p.NewThread()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if t.Failed() {
			return
		}
	}
}
