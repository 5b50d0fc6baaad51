package tpcc

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/store"
)

// This file ports the TPC-C workload from bare per-table indexes to the
// sharded store, with every multi-key writing transaction (NewOrder,
// Payment, Delivery) committed through the store's redo-log transaction
// path: one Txn buffers the whole write-set and Commit applies it
// atomically, including across shard crashes. Read-only transactions
// (OrderStatus, StockLevel) run as plain session reads and scans.
//
// All ten tables live in one key space; a 4-bit table tag in bits 60-63
// keeps them disjoint while staying inside uint64 keys, so the store's
// global sorted Scan doubles as a per-table range scan. Row values reuse
// the uint64 packings of the index-level benchmark above.

// Table tags (bits 60-63 of every key).
const (
	tagWarehouse uint64 = 1 + iota
	tagDistrict
	tagCustomer
	tagOrder
	tagNewOrder
	tagOrderLine
	tagCustOrder
	tagStock
	tagItem
	tagHistory
)

// Tagged key packers. Field widths bound the supported scale: warehouses
// fit 8 bits in the widest layouts, order ids 24 bits in custorder keys —
// far beyond what the smoke and bench runs load.
func tW(w int) uint64     { return tagWarehouse<<60 | uint64(w) }
func tWD(w, d int) uint64 { return tagDistrict<<60 | uint64(w)<<8 | uint64(d) }
func tWDC(w, d, c int) uint64 {
	return tagCustomer<<60 | uint64(w)<<24 | uint64(d)<<16 | uint64(c)
}
func tWDO(tag uint64, w, d int, o uint64) uint64 {
	return tag<<60 | uint64(w)<<40 | uint64(d)<<32 | o
}
func tWDOL(w, d int, o uint64, ol int) uint64 {
	return tagOrderLine<<60 | uint64(w)<<48 | uint64(d)<<40 | o<<8 | uint64(ol)
}
func tWDCO(w, d, c int, o uint64) uint64 {
	return tagCustOrder<<60 | uint64(w)<<48 | uint64(d)<<40 | uint64(c)<<24 | o
}
func tWI(w, i int) uint64   { return tagStock<<60 | uint64(w)<<32 | uint64(i) }
func tItem(i int) uint64    { return tagItem<<60 | uint64(i) }
func tHist(s uint64) uint64 { return tagHistory<<60 | s }

// StoreBench is one TPC-C instance over a sharded store. It is single-
// goroutine, like Bench: one session drives reads and commits. Crash
// recovery keeps the database consistent without the volatile mirrors —
// CheckConsistency revalidates the invariants straight from the store.
type StoreBench struct {
	st *store.Store
	ss *store.Session
	W  int

	histSeq uint64
	nextO   map[uint64]uint64 // volatile mirror of district next_o_id
}

// NewStoreBench opens a store with the given options (zero-value fields
// take the store's defaults) and loads W warehouses of initial data.
func NewStoreBench(w int, opts store.Options) (*StoreBench, error) {
	st, err := store.Open(opts)
	if err != nil {
		return nil, err
	}
	b := &StoreBench{st: st, ss: st.NewSession(), W: w, nextO: map[uint64]uint64{}}
	if err := b.load(); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// Store exposes the underlying store for invariant checks in tests.
func (b *StoreBench) Store() *store.Store { return b.st }

// Close releases the session and the store.
func (b *StoreBench) Close() {
	b.ss.Close()
	b.st.Close()
}

// load populates the initial database with plain puts; the transactional
// path is the workload under test, not the loader.
func (b *StoreBench) load() error {
	rng := rand.New(rand.NewSource(1))
	put := b.ss.Put
	for i := 1; i <= Items; i++ {
		if err := put(tItem(i), uint64(rng.Intn(9900)+100)); err != nil {
			return err
		}
	}
	for w := 1; w <= b.W; w++ {
		if err := put(tW(w), 0); err != nil {
			return err
		}
		for i := 1; i <= Items; i++ {
			if err := put(tWI(w, i), uint64(rng.Intn(90)+10)); err != nil {
				return err
			}
		}
		for d := 1; d <= Districts; d++ {
			for c := 1; c <= CustomersPer; c++ {
				if err := put(tWDC(w, d, c), 1<<40); err != nil {
					return err
				}
			}
			for o := uint64(1); o <= initialOrder; o++ {
				c := rng.Intn(CustomersPer) + 1
				cnt := rng.Intn(11) + 5
				if err := put(tWDO(tagOrder, w, d, o), uint64(c)<<16|uint64(cnt)); err != nil {
					return err
				}
				if err := put(tWDCO(w, d, c, o), o); err != nil {
					return err
				}
				if o > initialOrder/2 {
					if err := put(tWDO(tagNewOrder, w, d, o), 1); err != nil {
						return err
					}
				}
				for ol := 1; ol <= cnt; ol++ {
					it := rng.Intn(Items) + 1
					qty := rng.Intn(10) + 1
					if err := put(tWDOL(w, d, o, ol), uint64(it)<<16|uint64(qty)); err != nil {
						return err
					}
				}
			}
			b.nextO[tWD(w, d)] = initialOrder + 1
			if err := put(tWD(w, d), (initialOrder+1)<<32); err != nil {
				return err
			}
		}
	}
	return nil
}

// NewOrder runs the new-order transaction: reads resolve against the
// current state, then district advance, order/custorder/neworder rows,
// order lines, and all stock decrements commit as ONE atomic write-set.
func (b *StoreBench) NewOrder(rng *rand.Rand) error {
	w := rng.Intn(b.W) + 1
	d := rng.Intn(Districts) + 1
	c := rng.Intn(CustomersPer) + 1
	if _, ok, err := b.ss.Get(tWDC(w, d, c)); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("tpcc: missing customer %d/%d/%d", w, d, c)
	}
	dk := tWD(w, d)
	dv, ok, err := b.ss.Get(dk)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tpcc: missing district %d/%d", w, d)
	}
	o := b.nextO[dk]

	tx := b.ss.Begin()
	defer tx.Rollback()
	cnt := rng.Intn(11) + 5
	tx.Put(dk, (o+1)<<32|dv&0xffffffff)
	tx.Put(tWDO(tagOrder, w, d, o), uint64(c)<<16|uint64(cnt))
	tx.Put(tWDCO(w, d, c, o), o)
	tx.Put(tWDO(tagNewOrder, w, d, o), 1)
	for ol := 1; ol <= cnt; ol++ {
		it := rng.Intn(Items) + 1
		qty := rng.Intn(10) + 1
		if _, ok, err := b.ss.Get(tItem(it)); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("tpcc: missing item %d", it)
		}
		tx.Put(tWDOL(w, d, o, ol), uint64(it)<<16|uint64(qty))
		sk := tWI(w, it)
		q, ok, err := b.ss.Get(sk)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcc: missing stock %d/%d", w, it)
		}
		nq := q - uint64(rng.Intn(10)+1)
		if int64(nq) < 10 {
			nq += 91
		}
		tx.Put(sk, nq)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("tpcc: neworder commit: %w", err)
	}
	b.nextO[dk] = o + 1
	return nil
}

// Payment runs the payment transaction: warehouse YTD, district YTD,
// customer balance, and the history row commit atomically.
func (b *StoreBench) Payment(rng *rand.Rand) error {
	w := rng.Intn(b.W) + 1
	d := rng.Intn(Districts) + 1
	c := rng.Intn(CustomersPer) + 1
	amt := uint64(rng.Intn(5000) + 100)
	wv, _, err := b.ss.Get(tW(w))
	if err != nil {
		return err
	}
	dk := tWD(w, d)
	dv, _, err := b.ss.Get(dk)
	if err != nil {
		return err
	}
	ck := tWDC(w, d, c)
	cv, ok, err := b.ss.Get(ck)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tpcc: missing customer in payment")
	}

	tx := b.ss.Begin()
	defer tx.Rollback()
	tx.Put(tW(w), wv+amt)
	tx.Put(dk, dv+amt)
	tx.Put(ck, cv-amt)
	tx.Put(tHist(b.histSeq+1), amt)
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("tpcc: payment commit: %w", err)
	}
	b.histSeq++
	return nil
}

// OrderStatus reads a customer's latest order and its lines (range scans;
// read-only, so no transaction).
func (b *StoreBench) OrderStatus(rng *rand.Rand) error {
	w := rng.Intn(b.W) + 1
	d := rng.Intn(Districts) + 1
	c := rng.Intn(CustomersPer) + 1
	var last uint64
	err := b.ss.Scan(tWDCO(w, d, c, 0), tWDCO(w, d, c, 1<<24-1), func(k, v uint64) bool {
		last = v
		return true
	})
	if err != nil {
		return err
	}
	if last == 0 {
		return nil // customer has no orders yet
	}
	ov, ok, err := b.ss.Get(tWDO(tagOrder, w, d, last))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tpcc: custorder points at missing order %d", last)
	}
	cnt := int(ov & 0xffff)
	got := 0
	err = b.ss.Scan(tWDOL(w, d, last, 0), tWDOL(w, d, last, 255), func(k, v uint64) bool {
		got++
		return true
	})
	if err != nil {
		return err
	}
	if got != cnt {
		return fmt.Errorf("tpcc: order %d has %d lines, want %d", last, got, cnt)
	}
	return nil
}

// Delivery delivers the oldest undelivered order in every district of one
// warehouse. All neworder removals and customer balance credits across the
// districts commit as one transaction.
func (b *StoreBench) Delivery(rng *rand.Rand) error {
	w := rng.Intn(b.W) + 1
	tx := b.ss.Begin()
	defer tx.Rollback()
	any := false
	for d := 1; d <= Districts; d++ {
		var oldest uint64
		found := false
		err := b.ss.Scan(tWDO(tagNewOrder, w, d, 0), tWDO(tagNewOrder, w, d, 1<<32-1),
			func(k, v uint64) bool {
				oldest = k & 0xffffffff
				found = true
				return false // first = oldest
			})
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		ov, ok, err := b.ss.Get(tWDO(tagOrder, w, d, oldest))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcc: delivery of missing order %d/%d/%d", w, d, oldest)
		}
		c := int(ov >> 16)
		total := uint64(0)
		err = b.ss.Scan(tWDOL(w, d, oldest, 0), tWDOL(w, d, oldest, 255),
			func(k, v uint64) bool {
				total += v & 0xffff
				return true
			})
		if err != nil {
			return err
		}
		ck := tWDC(w, d, c)
		cv, ok, err := b.ss.Get(ck)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcc: delivery to missing customer")
		}
		tx.Delete(tWDO(tagNewOrder, w, d, oldest))
		tx.Put(ck, cv+total)
		any = true
	}
	if !any {
		return nil // nothing undelivered anywhere; Rollback cleans up
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("tpcc: delivery commit: %w", err)
	}
	return nil
}

// StockLevel counts recently-sold items below a stock threshold (the big
// read-only range scan).
func (b *StoreBench) StockLevel(rng *rand.Rand) error {
	w := rng.Intn(b.W) + 1
	d := rng.Intn(Districts) + 1
	next := b.nextO[tWD(w, d)]
	lowO := uint64(1)
	if next > 20 {
		lowO = next - 20
	}
	seen := map[int]bool{}
	err := b.ss.Scan(tWDOL(w, d, lowO, 0), tWDOL(w, d, next, 255), func(k, v uint64) bool {
		seen[int(v>>16)] = true
		return true
	})
	if err != nil {
		return err
	}
	low := 0
	for it := range seen {
		q, ok, err := b.ss.Get(tWI(w, it))
		if err != nil {
			return err
		}
		if ok && q < 15 {
			low++
		}
	}
	_ = low
	return nil
}

// Run executes n transactions drawn from mix, returning the count executed.
func (b *StoreBench) Run(mix Mix, n int, rng *rand.Rand) (int, error) {
	for i := 0; i < n; i++ {
		r := rng.Intn(100)
		var err error
		switch {
		case r < mix.NewOrder:
			err = b.NewOrder(rng)
		case r < mix.NewOrder+mix.Payment:
			err = b.Payment(rng)
		case r < mix.NewOrder+mix.Payment+mix.Status:
			err = b.OrderStatus(rng)
		case r < mix.NewOrder+mix.Payment+mix.Status+mix.Delivery:
			err = b.Delivery(rng)
		default:
			err = b.StockLevel(rng)
		}
		if err != nil {
			return i, err
		}
	}
	return n, nil
}

// CheckConsistency validates the TPC-C consistency conditions that the
// transactional workload must preserve — a torn commit breaks them:
//
//  1. Every warehouse's YTD equals the sum of its districts' YTD
//     (Payment touches both in one transaction).
//  2. Every district's next_o_id-1 equals the highest order id present in
//     the order table for that district (NewOrder advances the district
//     row and inserts the order atomically), and agrees with the volatile
//     mirror.
//  3. The sum of all history amounts equals the sum of all warehouse YTD
//     (both start at zero; Payment adds the same amount to each).
func (b *StoreBench) CheckConsistency() error {
	var wSum uint64
	for w := 1; w <= b.W; w++ {
		wv, ok, err := b.ss.Get(tW(w))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("tpcc: warehouse %d missing", w)
		}
		wSum += wv
		var distSum uint64
		for d := 1; d <= Districts; d++ {
			dv, ok, err := b.ss.Get(tWD(w, d))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("tpcc: district %d/%d missing", w, d)
			}
			distSum += dv & 0xffffffff
			next := dv >> 32
			if m := b.nextO[tWD(w, d)]; m != next {
				return fmt.Errorf("tpcc: district %d/%d next_o mirror %d != store %d", w, d, m, next)
			}
			var maxO uint64
			err = b.ss.Scan(tWDO(tagOrder, w, d, 0), tWDO(tagOrder, w, d, 1<<32-1),
				func(k, v uint64) bool {
					maxO = k & 0xffffffff
					return true
				})
			if err != nil {
				return err
			}
			if maxO != next-1 {
				return fmt.Errorf("tpcc: district %d/%d next_o %d but max order id %d", w, d, next, maxO)
			}
		}
		if wv != distSum {
			return fmt.Errorf("tpcc: warehouse %d YTD %d != district sum %d", w, wv, distSum)
		}
	}
	var histSum uint64
	err := b.ss.Scan(tHist(0), tHist(^uint64(0)>>4), func(k, v uint64) bool {
		histSum += v
		return true
	})
	if err != nil {
		return err
	}
	if histSum != wSum {
		return fmt.Errorf("tpcc: history sum %d != warehouse YTD sum %d", histSum, wSum)
	}
	return nil
}

// FigTPCC measures transactional TPC-C throughput over the sharded store:
// each mix runs txPerMix transactions through the redo-log commit path and
// must pass CheckConsistency afterwards. The "Kops/s" column is thousands
// of TPC-C transactions per second, tpmC-style.
func FigTPCC(txPerMix, warehouses int) *bench.Table {
	tbl := &bench.Table{
		Title: fmt.Sprintf("TPC-C transactional throughput over the store, %d tx/mix, %d warehouse(s)",
			txPerMix, warehouses),
		Header: []string{"mix", "Kops/s"},
		Notes: "each NewOrder/Payment/Delivery is one redo-log store transaction; " +
			"every mix run must pass the TPC-C consistency checks",
	}
	for _, mix := range Mixes {
		b, err := NewStoreBench(warehouses, store.Options{Shards: 4, ShardSize: 64 << 20})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(77))
		// Set-up, not throughput: a shard's first commit creates its redo
		// log, a TxnLogCap allocation on each of the four shards.
		if _, err := b.Run(mix, txPerMix/10, rng); err != nil {
			panic(fmt.Sprintf("tpcc %s warm-up: %v", mix.Name, err))
		}
		t0 := time.Now()
		n, err := b.Run(mix, txPerMix, rng)
		if err != nil {
			panic(fmt.Sprintf("tpcc %s: %v", mix.Name, err))
		}
		el := time.Since(t0)
		if err := b.CheckConsistency(); err != nil {
			panic(fmt.Sprintf("tpcc %s: %v", mix.Name, err))
		}
		b.Close()
		tbl.Rows = append(tbl.Rows, []string{mix.Name,
			fmt.Sprintf("%.1f", float64(n)/el.Seconds()/1000)})
	}
	return tbl
}
