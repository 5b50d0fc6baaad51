// Package index is the public index-structure API of this repository: one
// canonical Index interface over every persistent structure under test, the
// closed set of Kinds naming the implementations, and factories that create
// or re-attach an index inside a pmem.Pool.
//
// The figure harness (internal/bench) and the TPC-C workload (internal/tpcc)
// consume this interface; the per-kind constructor dispatch lives here and
// nowhere else. The sharded store (package store) does not: each of its
// shards is one FAST+FAIR tree, driven directly.
package index

import (
	"errors"

	"repro/internal/pmem"
)

// Index is the operation set every kind provides. Every method takes the
// caller's per-goroutine pmem.Thread; an index is safe for concurrent use
// only when the underlying structure is (FAST+FAIR, B-link and the skip list
// are; the single-threaded baselines are not). The persistent image lives in
// the pool and can be re-attached with OpenExisting; a handle holds nothing
// to release.
type Index interface {
	// Insert stores val under key, replacing any existing value.
	Insert(th *pmem.Thread, key, val uint64) error
	// Get returns the value stored under key.
	Get(th *pmem.Thread, key uint64) (uint64, bool)
	// Delete removes key, reporting whether it was present.
	Delete(th *pmem.Thread, key uint64) bool
	// Scan visits pairs with lo <= key <= hi in ascending key order until
	// fn returns false. fn must not block: the FAST+FAIR tree calls it
	// inside a grace section of th, during which the pool recycles no
	// retired block (see core.BTree.Scan).
	Scan(th *pmem.Thread, lo, hi uint64, fn func(key, val uint64) bool)
	// Len counts the keys (a full scan; not a hot path).
	Len(th *pmem.Thread) int
	// Pool returns the backing pool.
	Pool() *pmem.Pool
}

// Kind names an index implementation, using the paper's series letters.
type Kind string

// The built-in kinds.
const (
	FastFair         Kind = "FAST+FAIR"          // F
	FastFairLeafLock Kind = "FAST+FAIR+LeafLock" // Fig 7 variant
	FastFairLogging  Kind = "FAST+Logging"       // L
	FPTree           Kind = "FP-tree"            // P
	WBTree           Kind = "wB+-tree"           // W
	WORT             Kind = "WORT"               // O
	SkipList         Kind = "SkipList"           // S
	BLink            Kind = "B-link"             // Fig 7 reference
)

// Options shapes an index instantiation. The zero value selects each kind's
// defaults.
type Options struct {
	// NodeSize overrides the B+-tree node / FP-tree leaf size in bytes.
	NodeSize int
	// RootSlot selects which pool root-pointer slot anchors the index,
	// letting several indexes share one pool. Default 0.
	RootSlot int
	// InlineValues stores values directly in leaf records on the
	// FAST+FAIR variants (the paper's setup, where leaf pointers are the
	// values). It requires values to be unique and non-zero; the figure
	// workloads guarantee this by using the key as the value.
	InlineValues bool
}

// Errors returned by the factories.
var (
	// ErrUnknownKind reports a Kind that is not one of the built-in kinds.
	ErrUnknownKind = errors.New("index: unknown kind")
	// ErrNotReopenable reports a kind that cannot re-attach to an existing
	// pool image.
	ErrNotReopenable = errors.New("index: kind cannot reopen existing images")
)

// Exchanger is implemented by kinds whose Insert can atomically return the
// displaced value.
type Exchanger interface {
	Exchange(th *pmem.Thread, key, val uint64) (old uint64, existed bool, err error)
}

// Remover is implemented by kinds whose Delete can atomically return the
// displaced value.
type Remover interface {
	Remove(th *pmem.Thread, key uint64) (old uint64, existed bool)
}

// Exchange stores val under key and returns the value it displaced. Kinds
// without a native Exchange fall back to Get+Insert, which is atomic only
// for single-writer use — exactly the concurrency story of the kinds that
// lack it (the FAST+FAIR variants implement it natively under the leaf
// latch).
func Exchange(ix Index, th *pmem.Thread, key, val uint64) (old uint64, existed bool, err error) {
	if e, ok := ix.(Exchanger); ok {
		return e.Exchange(th, key, val)
	}
	old, existed = ix.Get(th, key)
	if err := ix.Insert(th, key, val); err != nil {
		return 0, false, err
	}
	return old, existed, nil
}

// Remove deletes key and returns the value it held. The fallback
// (Get+Delete) is atomic only for single-writer kinds.
func Remove(ix Index, th *pmem.Thread, key uint64) (old uint64, existed bool) {
	if r, ok := ix.(Remover); ok {
		return r.Remove(th, key)
	}
	old, existed = ix.Get(th, key)
	if !existed {
		return 0, false
	}
	return old, ix.Delete(th, key)
}
