package tpcc

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/index"
	"repro/internal/bench"
	"repro/internal/pmem"
	"repro/store"
)

// mapIndex is an in-memory oracle implementation of index.Index used to
// validate the workload logic itself, independent of any tree. It ignores
// the thread parameter (it has no pool).
type mapIndex struct {
	m map[uint64]uint64
}

func (x *mapIndex) Insert(_ *pmem.Thread, k, v uint64) error { x.m[k] = v; return nil }
func (x *mapIndex) Get(_ *pmem.Thread, k uint64) (uint64, bool) {
	v, ok := x.m[k]
	return v, ok
}
func (x *mapIndex) Delete(_ *pmem.Thread, k uint64) bool {
	_, ok := x.m[k]
	delete(x.m, k)
	return ok
}
func (x *mapIndex) Len(_ *pmem.Thread) int { return len(x.m) }
func (x *mapIndex) Pool() *pmem.Pool       { return nil }
func (x *mapIndex) Scan(_ *pmem.Thread, lo, hi uint64, fn func(k, v uint64) bool) {
	var keys []uint64
	for k := range x.m {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !fn(k, x.m[k]) {
			return
		}
	}
}

// backends are the databases every workload test runs on: the map oracle
// through the index backend (the workload logic alone), one FAST+FAIR index
// per table, and a four-shard store. open returns the store too when there
// is one, for its own invariant check.
var backends = []struct {
	name string
	open func(t *testing.T, w int) (*Bench, *store.Store)
}{
	{"oracle", func(t *testing.T, w int) (*Bench, *store.Store) {
		return onIndexes(t, w, func() (index.Index, *pmem.Thread, error) {
			return &mapIndex{m: map[uint64]uint64{}}, nil, nil
		}), nil
	}},
	{string(index.FastFair), func(t *testing.T, w int) (*Bench, *store.Store) {
		return onIndexes(t, w, func() (index.Index, *pmem.Thread, error) {
			return index.New(index.FastFair, pmem.Config{Size: 16 << 20}, index.Options{})
		}), nil
	}},
	{"store", func(t *testing.T, w int) (*Bench, *store.Store) {
		st, err := store.Open(store.Options{Shards: 4, ShardSize: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ss := st.NewSession()
		t.Cleanup(ss.Close)
		return loaded(t)(NewOnSession(w, ss)), st
	}},
}

// onIndexes loads w warehouses into ten indexes made by newIndex. Tests
// use pools far smaller than NewBound's: they load little, and allocating
// Figure 6's 1.4 GB of pools costs a quarter second a database.
func onIndexes(t *testing.T, w int, newIndex func() (index.Index, *pmem.Thread, error)) *Bench {
	x, err := newIndexDB(func(string) (index.Index, *pmem.Thread, error) { return newIndex() })
	if err != nil {
		t.Fatal(err)
	}
	return loaded(t)(newBench(w, x))
}

func loaded(t *testing.T) func(*Bench, error) *Bench {
	return func(b *Bench, err error) *Bench {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// onEveryBackend runs fn as one subtest per backend on a freshly loaded
// database of w warehouses.
func onEveryBackend(t *testing.T, w int, fn func(t *testing.T, b *Bench, st *store.Store)) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			b, st := be.open(t, w)
			fn(t, b, st)
		})
	}
}

func consistent(t *testing.T, b *Bench) {
	t.Helper()
	if err := b.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMixPercentagesSumTo100(t *testing.T) {
	for _, m := range Mixes {
		if s := m.NewOrder + m.Payment + m.Status + m.Delivery + m.StockPercent; s != 100 {
			t.Errorf("%s sums to %d", m.Name, s)
		}
	}
}

// TestLoadConsistent: the freshly loaded database already satisfies the
// consistency conditions.
func TestLoadConsistent(t *testing.T) {
	onEveryBackend(t, 2, func(t *testing.T, b *Bench, _ *store.Store) { consistent(t, b) })
}

// TestMixesStayConsistent drives a short run of every mix and checks the
// TPC-C consistency conditions after each, then the store's own invariants.
func TestMixesStayConsistent(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 60
	}
	onEveryBackend(t, 1, func(t *testing.T, b *Bench, st *store.Store) {
		rng := rand.New(rand.NewSource(7))
		for _, mix := range Mixes {
			if _, err := b.Run(mix, n, rng); err != nil {
				t.Fatalf("%s: %v", mix.Name, err)
			}
			if err := b.CheckConsistency(); err != nil {
				t.Fatalf("after %s: %v", mix.Name, err)
			}
		}
		if st != nil {
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestAllKindsRunTPCC drives a short mixed run on every index kind; an
// index bug surfaces as a transaction error (a missing row) or as a
// consistency violation.
func TestAllKindsRunTPCC(t *testing.T) {
	kinds := append([]index.Kind{}, bench.AllSingleThreaded...)
	kinds = append(kinds, index.FastFairLogging, index.FastFairLeafLock, index.BLink)
	for _, k := range kinds {
		t.Run(string(k), func(t *testing.T) {
			b := onIndexes(t, 1, func() (index.Index, *pmem.Thread, error) {
				return index.New(k, pmem.Config{Size: 16 << 20}, index.Options{})
			})
			rng := rand.New(rand.NewSource(2))
			for _, mix := range []Mix{Mixes[0], Mixes[3]} {
				if _, err := b.Run(mix, 300, rng); err != nil {
					t.Fatalf("%s: %v", mix.Name, err)
				}
				consistent(t, b)
			}
		})
	}
}

// TestDeliveryDrainsNewOrders: Delivery consumes at most one undelivered
// order per district and credits the customers in one commit.
func TestDeliveryDrainsNewOrders(t *testing.T) {
	onEveryBackend(t, 1, func(t *testing.T, b *Bench, _ *store.Store) {
		countNew := func() int {
			n := 0
			err := b.db.Scan(tagNewOrder<<60, tagNewOrder<<60|(1<<60-1),
				func(uint64, uint64) bool { n++; return true })
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		before := countNew()
		if before == 0 {
			t.Fatal("no undelivered orders after load")
		}
		if err := b.Delivery(rand.New(rand.NewSource(3))); err != nil {
			t.Fatal(err)
		}
		after := countNew()
		if after >= before {
			t.Fatalf("Delivery did not drain: %d -> %d", before, after)
		}
		if before-after > Districts {
			t.Fatalf("Delivery drained too much: %d", before-after)
		}
		consistent(t, b)
	})
}

// TestConsistencyYTD: after payments, warehouse YTD == district YTD sum ==
// history sum, which only holds if each payment's three updates and
// history insert landed together.
func TestConsistencyYTD(t *testing.T) {
	onEveryBackend(t, 1, func(t *testing.T, b *Bench, _ *store.Store) {
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 200; i++ {
			if err := b.Payment(rng); err != nil {
				t.Fatal(err)
			}
		}
		consistent(t, b)
		var histSum uint64
		if err := b.db.Scan(tHist(0), tHist(1<<60-1), func(_, v uint64) bool {
			histSum += v
			return true
		}); err != nil {
			t.Fatal(err)
		}
		wv, err := row(b.db, tW(1))
		if err != nil {
			t.Fatal(err)
		}
		if wv == 0 || wv != histSum {
			t.Fatalf("warehouse YTD %d, history sum %d", wv, histSum)
		}
	})
}

// TestNewOrderAdvancesDistrict: NewOrder advances districts exactly as many
// times as it ran, in the database and in the volatile mirror alike.
func TestNewOrderAdvancesDistrict(t *testing.T) {
	const runs = 100
	onEveryBackend(t, 1, func(t *testing.T, b *Bench, _ *store.Store) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < runs; i++ {
			if err := b.NewOrder(rng); err != nil {
				t.Fatal(err)
			}
		}
		total := uint64(0)
		for d := 1; d <= Districts; d++ {
			dv, err := row(b.db, tWD(1, d))
			if err != nil {
				t.Fatal(err)
			}
			next := dv >> 32
			if got := b.nextO[tWD(1, d)]; got != next {
				t.Fatalf("district %d: mirror %d != database %d", d, got, next)
			}
			total += next - 1 - initialOrder
		}
		if total != runs {
			t.Fatalf("orders created = %d, want %d", total, runs)
		}
		consistent(t, b)
	})
}

// TestNewOrderStockFollowsLines: each order line decrements the stock of
// its own item by its own quantity under TPC-C's rule, line by line (an
// item ordered twice is decremented twice), and no other stock row moves.
func TestNewOrderStockFollowsLines(t *testing.T) {
	onEveryBackend(t, 1, func(t *testing.T, b *Bench, _ *store.Store) {
		scan := func(lo, hi uint64) map[uint64]uint64 {
			m := map[uint64]uint64{}
			if err := b.db.Scan(lo, hi, func(k, v uint64) bool { m[k] = v; return true }); err != nil {
				t.Fatal(err)
			}
			return m
		}
		rng := rand.New(rand.NewSource(8))
		// Run orders until one has drawn an item twice, and at least 20.
		repeats := 0
		for i := 0; i < 20 || repeats == 0; i++ {
			if i == 1000 {
				t.Fatal("no order drew an item twice")
			}
			want := scan(tWI(1, 0), tWI(1, Items))
			next := maps.Clone(b.nextO)
			if err := b.NewOrder(rng); err != nil {
				t.Fatal(err)
			}
			d := 1
			for b.nextO[tWD(1, d)] == next[tWD(1, d)] {
				d++
			}
			o := next[tWD(1, d)]
			lines := scan(tWDOL(1, d, o, 0), tWDOL(1, d, o, 255))
			items := map[int]bool{}
			for ol := 1; ol <= len(lines); ol++ {
				v, ok := lines[tWDOL(1, d, o, ol)]
				if !ok {
					t.Fatalf("order %d/%d: line %d missing", d, o, ol)
				}
				it, qty := int(v>>16), v&0xffff
				if items[it] {
					repeats++
				}
				items[it] = true
				if q := want[tWI(1, it)]; q >= qty+10 {
					want[tWI(1, it)] = q - qty
				} else {
					want[tWI(1, it)] = q - qty + 91
				}
			}
			if got := scan(tWI(1, 0), tWI(1, Items)); !maps.Equal(got, want) {
				for k, v := range want {
					if got[k] != v {
						t.Errorf("order %d/%d: item %d stock %d, want %d", d, o, k&0xffffffff, got[k], v)
					}
				}
				t.FailNow()
			}
		}
	})
}
