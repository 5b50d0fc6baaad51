package tpcc

import (
	"math/rand"
	"testing"

	"repro/index"
	"repro/internal/bench"
	"repro/internal/pmem"
)

// mapIndex is an in-memory oracle implementation of index.Index used to
// validate the workload logic itself, independent of any tree. It ignores
// the thread parameter (it has no pool).
type mapIndex struct {
	m map[uint64]uint64
}

func newMapIndex() *mapIndex { return &mapIndex{m: map[uint64]uint64{}} }

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
	// Sorted scan over the map (slow; fine for tests).
	var keys []uint64
	for k := range x.m {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		if !fn(k, x.m[k]) {
			return
		}
	}
}

func TestWorkloadLogicOnOracle(t *testing.T) {
	b, err := New(1, func(string) (index.Index, *pmem.Thread, error) { return newMapIndex(), nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, mix := range Mixes {
		if _, err := b.Run(mix, 500, rng); err != nil {
			t.Fatalf("%s: %v", mix.Name, err)
		}
	}
}

func TestMixPercentagesSumTo100(t *testing.T) {
	for _, m := range Mixes {
		if s := m.NewOrder + m.Payment + m.Status + m.Delivery + m.StockPercent; s != 100 {
			t.Errorf("%s sums to %d", m.Name, s)
		}
	}
}

// TestAllKindsRunTPCC drives a short mixed run on every index kind; any
// index bug surfaces as a transaction error (missing customer/stock/etc.).
func TestAllKindsRunTPCC(t *testing.T) {
	kinds := append([]index.Kind{}, bench.AllSingleThreaded...)
	kinds = append(kinds, index.FastFairLogging, index.FastFairLeafLock, index.BLink)
	for _, k := range kinds {
		k := k
		t.Run(string(k), func(t *testing.T) {
			b, err := NewBound(k, 1, pmem.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			if _, err := b.Run(Mixes[0], 300, rng); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Run(Mixes[3], 300, rng); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeliveryDrainsNewOrders checks Delivery actually consumes the oldest
// undelivered orders.
func TestDeliveryDrainsNewOrders(t *testing.T) {
	b, err := New(1, func(string) (index.Index, *pmem.Thread, error) { return newMapIndex(), nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	countNew := func() int {
		n := 0
		b.neworder.Scan(0, ^uint64(0), func(uint64, uint64) bool { n++; return true })
		return n
	}
	before := countNew()
	if before == 0 {
		t.Fatal("no undelivered orders after load")
	}
	if err := b.Delivery(rng); err != nil {
		t.Fatal(err)
	}
	after := countNew()
	if after >= before {
		t.Fatalf("Delivery did not drain: %d -> %d", before, after)
	}
	if before-after > Districts {
		t.Fatalf("Delivery drained too much: %d", before-after)
	}
}

// TestConsistencyYTD: warehouse YTD equals the sum of history amounts for a
// payment-only run (a TPC-C consistency condition).
func TestConsistencyYTD(t *testing.T) {
	b, err := New(1, func(string) (index.Index, *pmem.Thread, error) { return newMapIndex(), nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		if err := b.Payment(rng); err != nil {
			t.Fatal(err)
		}
	}
	var histSum uint64
	b.history.Scan(0, ^uint64(0), func(_, v uint64) bool {
		histSum += v
		return true
	})
	wv, _ := b.warehouse.Get(kW(1))
	if wv != histSum {
		t.Fatalf("warehouse YTD %d != history sum %d", wv, histSum)
	}
}

// TestNewOrderAdvancesDistrict checks o_id monotonicity between the index
// and the volatile mirror.
func TestNewOrderAdvancesDistrict(t *testing.T) {
	b, err := New(1, func(string) (index.Index, *pmem.Thread, error) { return newMapIndex(), nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if err := b.NewOrder(rng); err != nil {
			t.Fatal(err)
		}
	}
	total := uint64(0)
	for d := 1; d <= Districts; d++ {
		dv, ok := b.district.Get(kWD(1, d))
		if !ok {
			t.Fatal("district missing")
		}
		next := dv >> 32
		if got := b.nextO[kWD(1, d)]; got != next {
			t.Fatalf("district %d: mirror %d != index %d", d, got, next)
		}
		total += next - 1 - initialOrder
	}
	if total != 100 {
		t.Fatalf("orders created = %d, want 100", total)
	}
}
