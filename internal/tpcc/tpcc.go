// Package tpcc implements the scaled-down TPC-C workload: five transaction
// types (NewOrder, Payment, OrderStatus, Delivery, StockLevel) over ten
// tables. The workload exercises the operational mix the paper argues
// B+-trees win on: point lookups, in-place updates, inserts, and — for
// StockLevel, Delivery and OrderStatus — range scans over sorted keys.
//
// The workload is written once, against a small database interface, and
// runs over two backends that add no workload logic of their own:
//
//   - ten per-table indexes (NewBound), for Figure 6's index comparison:
//     writes apply in place and a commit does nothing;
//   - a store session (NewOnSession), for the transactional port: each
//     NewOrder, Payment and Delivery is one redo-log store transaction.
//
// All ten tables share one key space: a 4-bit table tag in bits 60-63 keeps
// them disjoint inside uint64 keys, so one sorted scan is also a per-table
// range scan, and the index backend routes each key to its table by the
// tag. Rows are packed into uint64 values.
package tpcc

import (
	"errors"
	"fmt"
	"math/rand"
)

// Scale parameters (reduced from the TPC-C spec so a run loads in seconds;
// ratios between tables are preserved).
const (
	Districts    = 10
	CustomersPer = 300  // per district (spec: 3000)
	Items        = 1000 // spec: 100000
	initialOrder = 30   // pre-loaded orders per district
)

// Mix is a transaction percentage mix; the four workloads of Figure 6.
type Mix struct {
	Name                                              string
	NewOrder, Payment, Status, Delivery, StockPercent int
}

// Mixes are the paper's W1–W4 (NewOrder/Payment/Status/Delivery/StockLevel).
var Mixes = []Mix{
	{"W1", 34, 43, 5, 4, 14},
	{"W2", 27, 43, 15, 4, 11},
	{"W3", 20, 43, 25, 4, 8},
	{"W4", 13, 43, 35, 4, 5},
}

// Table tags (bits 60-63 of every key), in tableNames order from 1.
const (
	tagWarehouse uint64 = 1 + iota // w          -> ytd cents
	tagDistrict                    // (w,d)      -> next_o_id<<32 | ytd
	tagCustomer                    // (w,d,c)    -> balance (biased by 1<<40)
	tagOrder                       // (w,d,o)    -> c<<16 | ol_cnt
	tagNewOrder                    // (w,d,o)    -> 1
	tagOrderLine                   // (w,d,o,ol) -> item<<16 | qty
	tagCustOrder                   // (w,d,c,o)  -> o
	tagStock                       // (w,i)      -> quantity
	tagItem                        // i          -> price cents
	tagHistory                     // seq        -> amount
)

var tableNames = [...]string{
	"warehouse", "district", "customer", "order", "neworder",
	"orderline", "custorder", "stock", "item", "history",
}

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

type getter interface {
	Get(key uint64) (uint64, bool, error)
}

// db is what the workload runs over: point reads and range scans, a Put
// for the loader, and Begin for every transaction that writes.
type db interface {
	getter
	Put(key, val uint64) error
	Scan(lo, hi uint64, fn func(key, val uint64) bool) error
	Begin() tx
}

// tx is a write transaction; its method set is the part of *store.Txn the
// workload uses. Get reads the transaction's own writes.
type tx interface {
	getter
	Put(key, val uint64) error
	Delete(key uint64) error
	Commit() error
	Rollback()
}

// row reads key through g and reports a missing row as an error.
func row(g getter, key uint64) (uint64, error) {
	v, ok, err := g.Get(key)
	if err == nil && !ok {
		err = fmt.Errorf("tpcc: missing row %#x", key)
	}
	return v, err
}

// Bench is one TPC-C instance over a database. It is single-goroutine: one
// caller drives every transaction.
type Bench struct {
	W int // warehouses

	db      db
	histSeq uint64
	nextO   map[uint64]uint64 // volatile mirror of district next_o_id
}

// newBench loads w warehouses of initial data into d.
func newBench(w int, d db) (*Bench, error) {
	b := &Bench{W: w, db: d, nextO: map[uint64]uint64{}}
	return b, b.load()
}

// load populates the initial database with plain puts; the transactions
// are the workload under test, not the loader.
func (b *Bench) load() error {
	rng := rand.New(rand.NewSource(1))
	put := b.db.Put
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
				err := errors.Join(
					put(tWDO(tagOrder, w, d, o), uint64(c)<<16|uint64(cnt)),
					put(tWDCO(w, d, c, o), o))
				if err == nil && o > initialOrder/2 {
					err = put(tWDO(tagNewOrder, w, d, o), 1)
				}
				for ol := 1; ol <= cnt && err == nil; ol++ {
					it, qty := rng.Intn(Items)+1, rng.Intn(10)+1
					err = put(tWDOL(w, d, o, ol), uint64(it)<<16|uint64(qty))
				}
				if err != nil {
					return err
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

// pick draws a warehouse, district and customer.
func (b *Bench) pick(rng *rand.Rand) (w, d, c int) {
	return rng.Intn(b.W) + 1, rng.Intn(Districts) + 1, rng.Intn(CustomersPer) + 1
}

// NewOrder runs the new-order transaction: the district advance, the
// order, custorder and neworder rows, the order lines and each line's
// stock decrement commit as one transaction. Simulated user aborts are not
// modelled.
func (b *Bench) NewOrder(rng *rand.Rand) error {
	w, d, c := b.pick(rng)
	if _, err := row(b.db, tWDC(w, d, c)); err != nil {
		return err
	}
	t := b.db.Begin()
	defer t.Rollback()
	dk := tWD(w, d)
	dv, err := row(t, dk)
	if err != nil {
		return err
	}
	o := b.nextO[dk]
	cnt := rng.Intn(11) + 5
	err = errors.Join(
		t.Put(dk, (o+1)<<32|dv&0xffffffff),
		t.Put(tWDO(tagOrder, w, d, o), uint64(c)<<16|uint64(cnt)),
		t.Put(tWDCO(w, d, c, o), o),
		t.Put(tWDO(tagNewOrder, w, d, o), 1))
	for ol := 1; ol <= cnt && err == nil; ol++ {
		it, qty := rng.Intn(Items)+1, uint64(rng.Intn(10)+1)
		// The line's item is the stock row decremented, by the line's
		// quantity (TPC-C's stock rule), read through the transaction so
		// an item ordered twice is decremented twice.
		sk := tWI(w, it)
		var q uint64
		if _, err = row(b.db, tItem(it)); err == nil {
			q, err = row(t, sk)
		}
		if err != nil {
			break
		}
		if q >= qty+10 {
			q -= qty
		} else {
			q = q - qty + 91
		}
		err = errors.Join(t.Put(tWDOL(w, d, o, ol), uint64(it)<<16|qty), t.Put(sk, q))
	}
	if err != nil {
		return err
	}
	if err := t.Commit(); err != nil {
		return fmt.Errorf("tpcc: neworder commit: %w", err)
	}
	b.nextO[dk] = o + 1
	return nil
}

// Payment runs the payment transaction: warehouse YTD, district YTD,
// customer balance and the history row commit as one transaction.
func (b *Bench) Payment(rng *rand.Rand) error {
	w, d, c := b.pick(rng)
	amt := uint64(rng.Intn(5000) + 100)
	t := b.db.Begin()
	defer t.Rollback()
	wk, dk, ck := tW(w), tWD(w, d), tWDC(w, d, c)
	wv, err1 := row(t, wk)
	dv, err2 := row(t, dk)
	cv, err3 := row(t, ck)
	if err := errors.Join(err1, err2, err3); err != nil {
		return err
	}
	if err := errors.Join(t.Put(wk, wv+amt), t.Put(dk, dv+amt), t.Put(ck, cv-amt),
		t.Put(tHist(b.histSeq+1), amt)); err != nil {
		return err
	}
	if err := t.Commit(); err != nil {
		return fmt.Errorf("tpcc: payment commit: %w", err)
	}
	b.histSeq++
	return nil
}

// OrderStatus reads a customer's latest order and its lines (range scans;
// read-only, so no transaction).
func (b *Bench) OrderStatus(rng *rand.Rand) error {
	w, d, c := b.pick(rng)
	var last uint64
	err := b.db.Scan(tWDCO(w, d, c, 0), tWDCO(w, d, c, 1<<24-1), func(_, v uint64) bool {
		last = v
		return true
	})
	if err != nil || last == 0 {
		return err // last == 0: the customer has no orders yet
	}
	ov, err := row(b.db, tWDO(tagOrder, w, d, last))
	if err != nil {
		return err
	}
	got := 0
	err = b.db.Scan(tWDOL(w, d, last, 0), tWDOL(w, d, last, 255), func(uint64, uint64) bool {
		got++
		return true
	})
	if err == nil && got != int(ov&0xffff) {
		err = fmt.Errorf("tpcc: order %d has %d lines, want %d", last, got, ov&0xffff)
	}
	return err
}

// Delivery delivers the oldest undelivered order in every district of one
// warehouse: the neworder removals and customer credits of all districts
// commit as one transaction.
func (b *Bench) Delivery(rng *rand.Rand) error {
	w := rng.Intn(b.W) + 1
	t := b.db.Begin()
	defer t.Rollback()
	for d := 1; d <= Districts; d++ {
		var oldest uint64
		found := false
		err := b.db.Scan(tWDO(tagNewOrder, w, d, 0), tWDO(tagNewOrder, w, d, 1<<32-1),
			func(k, _ uint64) bool {
				oldest, found = k&0xffffffff, true
				return false // first = oldest
			})
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		ov, err := row(b.db, tWDO(tagOrder, w, d, oldest))
		if err != nil {
			return err
		}
		total := uint64(0)
		err = b.db.Scan(tWDOL(w, d, oldest, 0), tWDOL(w, d, oldest, 255), func(_, v uint64) bool {
			total += v & 0xffff
			return true
		})
		ck := tWDC(w, d, int(ov>>16))
		var cv uint64
		if err == nil {
			cv, err = row(t, ck)
		}
		if err != nil {
			return err
		}
		if err := errors.Join(t.Delete(tWDO(tagNewOrder, w, d, oldest)), t.Put(ck, cv+total)); err != nil {
			return err
		}
	}
	if err := t.Commit(); err != nil {
		return fmt.Errorf("tpcc: delivery commit: %w", err)
	}
	return nil
}

// StockLevel counts recently-sold items below a stock threshold (the big
// read-only range scan).
func (b *Bench) StockLevel(rng *rand.Rand) error {
	w := rng.Intn(b.W) + 1
	d := rng.Intn(Districts) + 1
	next := b.nextO[tWD(w, d)]
	lowO := uint64(1)
	if next > 20 {
		lowO = next - 20
	}
	seen := map[int]bool{}
	err := b.db.Scan(tWDOL(w, d, lowO, 0), tWDOL(w, d, next, 255), func(_, v uint64) bool {
		seen[int(v>>16)] = true
		return true
	})
	low := 0
	for it := range seen {
		if err != nil {
			return err
		}
		var q uint64
		if q, err = row(b.db, tWI(w, it)); err == nil && q < 15 {
			low++
		}
	}
	_ = low
	return err
}

// Run executes n transactions drawn from mix, returning the count executed.
func (b *Bench) Run(mix Mix, n int, rng *rand.Rand) (int, error) {
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

// CheckConsistency validates the TPC-C consistency conditions the workload
// must preserve — a torn commit breaks them:
//
//  1. Every warehouse's YTD equals the sum of its districts' YTD
//     (Payment touches both in one transaction).
//  2. Every district's next_o_id-1 equals the highest order id present in
//     the order table for that district (NewOrder advances the district
//     row and inserts the order atomically), and agrees with the volatile
//     mirror.
//  3. The sum of all history amounts equals the sum of all warehouse YTD
//     (both start at zero; Payment adds the same amount to each).
func (b *Bench) CheckConsistency() error {
	var wSum uint64
	for w := 1; w <= b.W; w++ {
		wv, err := row(b.db, tW(w))
		if err != nil {
			return err
		}
		wSum += wv
		var distSum uint64
		for d := 1; d <= Districts; d++ {
			dv, err := row(b.db, tWD(w, d))
			if err != nil {
				return err
			}
			distSum += dv & 0xffffffff
			next := dv >> 32
			if m := b.nextO[tWD(w, d)]; m != next {
				return fmt.Errorf("tpcc: district %d/%d next_o mirror %d != database %d", w, d, m, next)
			}
			var maxO uint64
			err = b.db.Scan(tWDO(tagOrder, w, d, 0), tWDO(tagOrder, w, d, 1<<32-1),
				func(k, _ uint64) bool {
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
	err := b.db.Scan(tHist(0), tHist(1<<60-1), func(_, v uint64) bool {
		histSum += v
		return true
	})
	if err == nil && histSum != wSum {
		err = fmt.Errorf("tpcc: history sum %d != warehouse YTD sum %d", histSum, wSum)
	}
	return err
}
