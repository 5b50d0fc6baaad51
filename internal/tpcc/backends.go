package tpcc

import (
	"fmt"

	"repro/index"
	"repro/internal/pmem"
	"repro/store"
)

// indexDB is the index backend: one index per table, chosen by the key's
// tag. A write applies in place, so a transaction is the database itself
// and Commit and Rollback do nothing: Figure 6 times the indexes, not a
// transaction layer.
type indexDB struct {
	ix [tagHistory + 1]index.Index
	th [tagHistory + 1]*pmem.Thread
}

// newIndexDB makes each table's index with newTable, which is called once
// per table name and returns the index and the thread it is driven with.
func newIndexDB(newTable func(name string) (index.Index, *pmem.Thread, error)) (*indexDB, error) {
	x := &indexDB{}
	for i, name := range tableNames {
		ix, th, err := newTable(name)
		if err != nil {
			return nil, fmt.Errorf("tpcc: creating %s: %w", name, err)
		}
		x.ix[i+1], x.th[i+1] = ix, th
	}
	return x, nil
}

func (x *indexDB) Get(k uint64) (uint64, bool, error) {
	v, ok := x.ix[k>>60].Get(x.th[k>>60], k)
	return v, ok, nil
}

func (x *indexDB) Put(k, v uint64) error { return x.ix[k>>60].Insert(x.th[k>>60], k, v) }

func (x *indexDB) Delete(k uint64) error {
	if !x.ix[k>>60].Delete(x.th[k>>60], k) {
		return fmt.Errorf("tpcc: delete of missing row %#x", k)
	}
	return nil
}

// Scan visits one table: lo and hi carry the same tag.
func (x *indexDB) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	x.ix[lo>>60].Scan(x.th[lo>>60], lo, hi, fn)
	return nil
}

func (x *indexDB) Begin() tx     { return x }
func (x *indexDB) Commit() error { return nil }
func (x *indexDB) Rollback()     {}

// NewBound loads w warehouses into ten indexes of the given kind, one per
// table, each in its own pool with the given latency configuration.
func NewBound(k index.Kind, w int, mem pmem.Config) (*Bench, error) {
	x, err := newIndexDB(func(name string) (index.Index, *pmem.Thread, error) {
		m := mem
		m.Size = 64 << 20
		if name == "orderline" || name == "stock" || name == "customer" || name == "history" {
			m.Size = 256 << 20
		}
		return index.New(k, m, index.Options{})
	})
	if err != nil {
		return nil, err
	}
	return newBench(w, x)
}

// storeDB is the store backend: a session, whose transactions are the
// store's redo-log transactions.
type storeDB struct{ *store.Session }

func (s storeDB) Begin() tx { return s.Session.Begin() }

// NewOnSession loads w warehouses through ss and runs the workload on it.
// The caller keeps ss and its store, and closes them.
func NewOnSession(w int, ss *store.Session) (*Bench, error) {
	return newBench(w, storeDB{ss})
}
