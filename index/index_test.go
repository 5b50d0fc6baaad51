package index

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
)

func allKinds() []Kind {
	return []Kind{FastFair, FastFairLeafLock, FastFairLogging, FPTree, WBTree, WORT, SkipList, BLink}
}

func TestKindsRegistered(t *testing.T) {
	reg := map[Kind]bool{}
	for _, k := range Kinds() {
		reg[k] = true
	}
	for _, k := range allKinds() {
		if !reg[k] {
			t.Errorf("kind %q not registered", k)
		}
	}
}

// TestOpenAllKinds drives the full operation set of every registered kind
// through the public interface.
func TestOpenAllKinds(t *testing.T) {
	keys := []uint64{}
	for i := uint64(1); i <= 500; i++ {
		keys = append(keys, i*2654435761%100000+1)
	}
	for _, k := range allKinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			ix, th, err := New(k, pmem.Config{Size: 64 << 20}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64]uint64{}
			for _, key := range keys {
				if err := ix.Insert(th, key, key+1); err != nil {
					t.Fatal(err)
				}
				want[key] = key + 1
			}
			for key, val := range want {
				got, ok := ix.Get(th, key)
				if !ok || got != val {
					t.Fatalf("Get(%d) = (%d,%v), want %d", key, got, ok, val)
				}
			}
			if n := ix.Len(th); n != len(want) {
				t.Fatalf("Len = %d, want %d", n, len(want))
			}
			// Ascending scan over the whole range.
			last := uint64(0)
			seen := 0
			ix.Scan(th, 0, ^uint64(0), func(key, val uint64) bool {
				if key <= last && seen > 0 {
					t.Fatalf("scan out of order: %d after %d", key, last)
				}
				if want[key] != val {
					t.Fatalf("scan value %d for key %d, want %d", val, key, want[key])
				}
				last = key
				seen++
				return true
			})
			if seen != len(want) {
				t.Fatalf("scan saw %d, want %d", seen, len(want))
			}
			if !ix.Delete(th, keys[0]) {
				t.Fatal("delete failed")
			}
			if _, ok := ix.Get(th, keys[0]); ok {
				t.Fatal("deleted key still present")
			}
		})
	}
}

func TestUnknownKind(t *testing.T) {
	if _, _, err := New("nope", pmem.Config{}, Options{}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
	p := pmem.New(pmem.Config{Size: 1 << 20})
	if _, err := OpenExisting("nope", p, p.NewThread(), Options{}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

// TestOpenExisting checks that every reopenable kind re-attaches to its pool
// image with the data intact, and that B-link reports ErrNotReopenable.
func TestOpenExisting(t *testing.T) {
	for _, k := range allKinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			ix, th, err := New(k, pmem.Config{Size: 64 << 20}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(1); i <= 100; i++ {
				if err := ix.Insert(th, i, i*7); err != nil {
					t.Fatal(err)
				}
			}
			pool := ix.Pool()
			th2 := pool.NewThread()
			re, err := OpenExisting(k, pool, th2, Options{})
			if k == BLink {
				if !errors.Is(err, ErrNotReopenable) {
					t.Fatalf("B-link reopen err = %v, want ErrNotReopenable", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tr, ok := re.(*core.BTree); ok {
				if err := tr.Recover(th2); err != nil {
					t.Fatal(err)
				}
			}
			c, ok := re.(interface{ CheckInvariants(*pmem.Thread) error })
			if !ok {
				t.Fatalf("%T has no CheckInvariants", re)
			}
			if err := c.CheckInvariants(th2); err != nil {
				t.Fatal(err)
			}
			for i := uint64(1); i <= 100; i++ {
				got, ok := re.Get(th2, i)
				if !ok || got != i*7 {
					t.Fatalf("after reopen Get(%d) = (%d,%v), want %d", i, got, ok, i*7)
				}
			}
		})
	}
}
