package index

import (
	"fmt"

	"repro/internal/blink"
	"repro/internal/core"
	"repro/internal/fptree"
	"repro/internal/pmem"
	"repro/internal/skiplist"
	"repro/internal/wbtree"
	"repro/internal/wort"
)

// Kinds returns the built-in kinds in sorted order.
func Kinds() []Kind {
	return []Kind{BLink, FastFair, FastFairLeafLock, FastFairLogging, FPTree, SkipList, WORT, WBTree}
}

// Open creates a fresh index of the given kind inside pool, using th for the
// initialising stores.
func Open(kind Kind, pool *pmem.Pool, th *pmem.Thread, opts Options) (Index, error) {
	ix, err := build(kind, pool, th, opts, true)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", kind, err)
	}
	return ix, nil
}

// OpenExisting attaches to an index image already present in pool — a
// reopened device or a crash image. It performs no recovery: a FAST+FAIR
// tree tolerates and repairs transient inconsistency lazily, and the
// concrete *core.BTree's Recover repairs it eagerly.
func OpenExisting(kind Kind, pool *pmem.Pool, th *pmem.Thread, opts Options) (Index, error) {
	ix, err := build(kind, pool, th, opts, false)
	if err != nil {
		return nil, fmt.Errorf("index: reopen %s: %w", kind, err)
	}
	return ix, nil
}

// build is the one dispatch over the kinds: it creates (create) or
// re-attaches an index, mapping the generic Options onto the
// implementation's own. The FAST+FAIR variants differ only in the
// core.Options flags they set. On error the Index is meaningless.
func build(kind Kind, p *pmem.Pool, th *pmem.Thread, o Options, create bool) (Index, error) {
	switch kind {
	case FastFair, FastFairLeafLock, FastFairLogging:
		co := core.Options{NodeSize: o.NodeSize, RootSlot: o.RootSlot, InlineValues: o.InlineValues,
			LeafLocks: kind == FastFairLeafLock, LoggedSplit: kind == FastFairLogging}
		if create {
			return core.New(p, th, co)
		}
		return core.Open(p, th, co)
	case FPTree:
		fo := fptree.Options{LeafSize: o.NodeSize, RootSlot: o.RootSlot}
		if create {
			return fptree.New(p, th, fo)
		}
		return fptree.Open(p, th, fo)
	case WBTree:
		wo := wbtree.Options{NodeSize: o.NodeSize, RootSlot: o.RootSlot}
		if create {
			return wbtree.New(p, th, wo)
		}
		return wbtree.Open(p, th, wo)
	case WORT:
		if create {
			return wort.New(p, th, wort.Options{RootSlot: o.RootSlot})
		}
		return wort.Open(p, th, wort.Options{RootSlot: o.RootSlot})
	case SkipList:
		if create {
			return skiplist.New(p, th, skiplist.Options{RootSlot: o.RootSlot})
		}
		return skiplist.Open(p, th, skiplist.Options{RootSlot: o.RootSlot})
	case BLink:
		// B-link keeps its root only in the pool header it was created with
		// and cannot re-attach; it exists as the Figure 7 DRAM reference.
		if create {
			return blink.New(p, th, blink.Options{NodeSize: o.NodeSize, RootSlot: o.RootSlot})
		}
		return nil, ErrNotReopenable
	}
	return nil, ErrUnknownKind
}

// New is the harness convenience factory: it builds a pool from mem
// (defaulting Size to 1 GiB), opens a fresh index of the given kind in it,
// and returns a first thread for the calling goroutine.
func New(kind Kind, mem pmem.Config, opts Options) (Index, *pmem.Thread, error) {
	if mem.Size == 0 {
		mem.Size = 1 << 30
	}
	p := pmem.New(mem)
	th := p.NewThread()
	ix, err := Open(kind, p, th, opts)
	if err != nil {
		return nil, nil, err
	}
	return ix, th, nil
}
