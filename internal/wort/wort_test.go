package wort

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

func newTree(t testing.TB) (*Tree, *pmem.Thread) {
	t.Helper()
	p := pmem.New(pmem.Config{Size: 256 << 20})
	th := p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, th
}

func TestBasicOps(t *testing.T) {
	tr, th := newTree(t)
	if _, ok := tr.Get(th, 1); ok {
		t.Error("empty tree found key")
	}
	for i := uint64(0); i < 2000; i++ {
		if err := tr.Insert(th, i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 2000; i++ {
		if v, ok := tr.Get(th, i); !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := tr.Get(th, 99999); ok {
		t.Error("found missing key")
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

// TestDenseSequentialKeys exercises deep common prefixes (path compression
// and chained splits).
func TestDenseSequentialKeys(t *testing.T) {
	tr, th := newTree(t)
	for i := uint64(0); i < 5000; i++ {
		if err := tr.Insert(th, i+1000000, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5000; i++ {
		if v, ok := tr.Get(th, i+1000000); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i+1000000, v, ok)
		}
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixSplit inserts keys that force prefix divergence inside
// compressed nodes (sharing long runs then branching high).
func TestPrefixSplit(t *testing.T) {
	tr, th := newTree(t)
	keys := []uint64{
		0x1234567890abcdef,
		0x1234567890abcd00, // diverge at nibble 14
		0x1234567890000000, // diverge inside the compressed prefix
		0x1234500000000000, // diverge earlier
		0x1234567890abcdee,
	}
	for i, k := range keys {
		if err := tr.Insert(th, k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			if v, ok := tr.Get(th, keys[j]); !ok || v != uint64(j) {
				t.Fatalf("after %d inserts: Get(%#x) = %d,%v", i+1, keys[j], v, ok)
			}
		}
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestOracle(t *testing.T) {
	tr, th := newTree(t)
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20000; op++ {
		var k uint64
		if op%2 == 0 {
			k = rng.Uint64() % 1000 // dense
		} else {
			k = rng.Uint64() // sparse
		}
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
	if got := tr.Len(th); got != len(oracle) {
		t.Fatalf("Len = %d oracle %d", got, len(oracle))
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}

func TestScanSorted(t *testing.T) {
	tr, th := newTree(t)
	rng := rand.New(rand.NewSource(2))
	m := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		k := rng.Uint64() >> 20
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
		if !m[k] {
			t.Fatalf("scan fabricated key %d", k)
		}
		prev, first = k, false
		n++
		return true
	})
	if n != len(m) {
		t.Fatalf("scan saw %d keys, want %d", n, len(m))
	}
}

func TestScanRangeBounds(t *testing.T) {
	tr, th := newTree(t)
	for i := uint64(0); i < 100; i++ {
		tr.Insert(th, i*10, i)
	}
	n := 0
	tr.Scan(th, 250, 500, func(k, v uint64) bool {
		if k < 250 || k > 500 {
			t.Fatalf("scan out of range: %d", k)
		}
		n++
		return true
	})
	if n != 26 { // 250..500 step 10
		t.Fatalf("scan count = %d, want 26", n)
	}
}

// TestCrashAtomicity enumerates crash points across inserts that exercise
// all three WORT update paths: empty slot, leaf split, and prefix split
// (whose header rewrite is deliberately the step a crash may abandon).
func TestCrashAtomicity(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	setup := []uint64{0x1234567890abcdef, 0x1111111111111111, 42}
	for i, k := range setup {
		tr.Insert(th, k, uint64(i+1))
		committed[k] = uint64(i + 1)
	}
	p.StartCrashLog()
	inflight := []uint64{
		0x1234567890abcd00, // leaf split deep
		0x1234560000000000, // prefix split
		43,                 // leaf split shallow
		0x9999999999999999, // empty slot at root
	}
	for i, k := range inflight {
		tr.Insert(th, k, uint64(100+i))
	}
	rng := rand.New(rand.NewSource(3))
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		tr2, err := Open(img, ith, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range committed {
			if got, ok := tr2.Get(ith, k); !ok || got != v {
				t.Fatalf("%v: Get(%#x) = %d,%v want %d", cp, k, got, ok, v)
			}
		}
		for i, k := range inflight {
			if got, ok := tr2.Get(ith, k); ok && got != uint64(100+i) {
				t.Fatalf("%v: torn in-flight key %#x = %d", cp, k, got)
			}
		}
		// The tree must remain writable post-crash (lazy header
		// repair path).
		if err := tr2.Insert(ith, 0x1234567890abcd11, 7); err != nil {
			t.Fatal(err)
		}
		if v, ok := tr2.Get(ith, 0x1234567890abcd11); !ok || v != 7 {
			t.Fatalf("%v: post-crash insert lost", cp)
		}
		if err := tr2.CheckInvariants(ith); err != nil {
			t.Fatalf("%v: %v", cp, err)
		}
	}
}

func TestDeleteThenReinsert(t *testing.T) {
	tr, th := newTree(t)
	for i := uint64(0); i < 500; i++ {
		tr.Insert(th, i, i)
	}
	for i := uint64(0); i < 500; i += 2 {
		if !tr.Delete(th, i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	for i := uint64(0); i < 500; i += 2 {
		if err := tr.Insert(th, i, i+1000); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 500; i++ {
		want := i
		if i%2 == 0 {
			want = i + 1000
		}
		if v, ok := tr.Get(th, i); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v want %d", i, v, ok, want)
		}
	}
}
