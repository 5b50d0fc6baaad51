// Package index is the public index-structure API of this repository: one
// canonical Index interface over every persistent structure under test, a
// Kind registry naming the implementations, and factories that create or
// re-attach an index inside a pmem.Pool.
//
// The figure harness (internal/bench), the TPC-C workload (internal/tpcc),
// and the sharded KV layer (package store) all consume this interface; the
// per-kind constructor dispatch lives here and nowhere else.
package index

import (
	"errors"

	"repro/internal/pmem"
)

// Impl is the operation set an index implementation must provide to be
// registered. Every method takes the caller's per-goroutine pmem.Thread;
// implementations are safe for concurrent use only when the underlying
// structure is (FAST+FAIR, B-link and the skip list are; the single-threaded
// baselines are not).
type Impl interface {
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

// Index is the canonical index handle: the implementation's operation set
// plus handle identity and lifecycle.
type Index interface {
	Impl
	// Kind reports which registered implementation backs the handle.
	Kind() Kind
	// Close releases the handle. It is idempotent; the persistent image
	// stays in the pool and can be re-attached with OpenExisting.
	Close() error
}

// Kind names an index implementation, using the paper's series letters.
type Kind string

// The built-in kinds (registered by this package).
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
	// ErrUnknownKind reports a Kind with no registered driver.
	ErrUnknownKind = errors.New("index: unknown kind")
	// ErrNotReopenable reports a kind whose driver cannot re-attach to an
	// existing pool image.
	ErrNotReopenable = errors.New("index: kind cannot reopen existing images")
)

// Recoverer is implemented by kinds with an eager crash-recovery pass
// (FAST+FAIR repairs transient inconsistency left by a crash).
type Recoverer interface {
	Recover(th *pmem.Thread) error
}

// Exchanger is implemented by kinds whose Insert can atomically return the
// displaced value. The store's value-log garbage accounting needs the old
// word of every overwrite.
type Exchanger interface {
	Exchange(th *pmem.Thread, key, val uint64) (old uint64, existed bool, err error)
}

// ConditionalReplacer is implemented by kinds that can atomically replace a
// key's value only while it still holds an expected word — the commit
// primitive of value-log record relocation.
type ConditionalReplacer interface {
	ReplaceIf(th *pmem.Thread, key, old, new uint64) bool
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
	if e, ok := Unwrap(ix).(Exchanger); ok {
		return e.Exchange(th, key, val)
	}
	old, existed = ix.Get(th, key)
	if err := ix.Insert(th, key, val); err != nil {
		return 0, false, err
	}
	return old, existed, nil
}

// ReplaceIf replaces key's value old→new only while it still holds old,
// reporting whether it did. The fallback (Get, compare, Insert) is atomic
// only for single-writer kinds; the FAST+FAIR variants implement the
// latched compare-and-swap natively.
func ReplaceIf(ix Index, th *pmem.Thread, key, old, new uint64) bool {
	if r, ok := Unwrap(ix).(ConditionalReplacer); ok {
		return r.ReplaceIf(th, key, old, new)
	}
	cur, found := ix.Get(th, key)
	if !found || cur != old {
		return false
	}
	return ix.Insert(th, key, new) == nil
}

// Remove deletes key and returns the value it held. The fallback
// (Get+Delete) is atomic only for single-writer kinds.
func Remove(ix Index, th *pmem.Thread, key uint64) (old uint64, existed bool) {
	if r, ok := Unwrap(ix).(Remover); ok {
		return r.Remove(th, key)
	}
	old, existed = ix.Get(th, key)
	if !existed {
		return 0, false
	}
	return old, ix.Delete(th, key)
}

// Checker is implemented by kinds that can verify structural invariants.
type Checker interface {
	CheckInvariants(th *pmem.Thread) error
}

// Recover runs the implementation's eager crash-recovery pass if it has
// one. Kinds without a recovery pass (their readers and writers tolerate or
// repair crashed state lazily, or the kind is single-threaded volatile
// rebuild) return nil.
func Recover(ix Index, th *pmem.Thread) error {
	if r, ok := Unwrap(ix).(Recoverer); ok {
		return r.Recover(th)
	}
	return nil
}

// CheckInvariants verifies structural invariants when the implementation
// supports it, returning nil otherwise.
func CheckInvariants(ix Index, th *pmem.Thread) error {
	if c, ok := Unwrap(ix).(Checker); ok {
		return c.CheckInvariants(th)
	}
	return nil
}

// Unwrap returns the concrete implementation behind a handle produced by
// Open/OpenExisting/New, or ix itself for foreign Index implementations.
func Unwrap(ix Index) any {
	if h, ok := ix.(*handle); ok {
		return h.Impl
	}
	return ix
}
