// Package skiplist implements the persistent skip list the paper evaluates
// as the "SkipList" baseline (from the Log-Structured NVMM system): only the
// lowest-level linked list is updated failure-atomically — a fully-persisted
// node is published with one atomic pointer store — while the upper index
// levels are best-effort and rebuildable. Like FAST+FAIR it needs no logging
// and offers lock-free search, but its pointer-chasing access pattern has no
// cache locality, which is exactly the weakness Figures 4 and 5 measure.
package skiplist

import (
	"fmt"

	"repro/internal/pmem"
)

const (
	// MaxLevel bounds tower height; level 0 is the persistent truth.
	MaxLevel = 20

	offKey   = 0
	offVal   = 8
	offMeta  = 16 // tower height
	offNext  = 24 // next[level] pointers
	nodeSize = offNext + MaxLevel*8
)

// List is a persistent skip list of uint64 key/value pairs. The head tower
// is anchored at a pool root slot.
type List struct {
	pool *pmem.Pool
	head int64
	slot int
}

// Options configures a List.
type Options struct {
	// RootSlot anchors the head tower (default 0).
	RootSlot int
}

// New creates an empty list.
func New(p *pmem.Pool, th *pmem.Thread, opts Options) (*List, error) {
	head, err := p.Alloc(nodeSize, pmem.LineSize)
	if err != nil {
		return nil, err
	}
	th.Persist(head, nodeSize)
	p.SetRoot(th, opts.RootSlot, head)
	return &List{pool: p, head: head, slot: opts.RootSlot}, nil
}

// Open attaches to an existing list (e.g. a crash image) and rebuilds the
// volatile upper index levels from the persistent bottom list.
func Open(p *pmem.Pool, th *pmem.Thread, opts Options) (*List, error) {
	head := p.Root(th, opts.RootSlot)
	if head == 0 {
		return nil, fmt.Errorf("skiplist: no list at root slot %d", opts.RootSlot)
	}
	l := &List{pool: p, head: head, slot: opts.RootSlot}
	l.Recover(th)
	return l, nil
}

// Pool returns the backing pool.
func (l *List) Pool() *pmem.Pool { return l.pool }

func next(th *pmem.Thread, n int64, lv int) int64 {
	return int64(th.Load(n + offNext + int64(lv)*8))
}

// towerLevel derives a deterministic height from the key (a splitmix-style
// hash), keeping crash images reproducible: P(level >= k) = 2^-k.
func towerLevel(key uint64) int {
	x := key + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	lv := 1
	for x&1 == 1 && lv < MaxLevel {
		lv++
		x >>= 1
	}
	return lv
}

// findPreds fills preds with the rightmost node before key at every level,
// and succs with the node each level's scan stopped at: the first there
// whose key is at least key, or 0. It returns succs[0]. Callers act on
// these successors, never on a second read of a pred's link, which may
// already hold a node linked since the scan judged it.
func (l *List) findPreds(th *pmem.Thread, key uint64, preds, succs *[MaxLevel]int64) int64 {
	n := l.head
	for lv := MaxLevel - 1; lv >= 0; lv-- {
		nx := next(th, n, lv)
		for nx != 0 && th.Load(nx+offKey) < key {
			n = nx
			nx = next(th, n, lv)
		}
		preds[lv], succs[lv] = n, nx
	}
	return succs[0]
}

// Insert stores val under key, replacing an existing value in place (one
// atomic store + flush).
func (l *List) Insert(th *pmem.Thread, key, val uint64) error {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	var preds, succs [MaxLevel]int64
	for {
		cand := l.findPreds(th, key, &preds, &succs)
		if cand != 0 && th.Load(cand+offKey) == key {
			th.BeginPhase(pmem.PhaseUpdate)
			th.Store(cand+offVal, val)
			th.Flush(cand+offVal, 8)
			return nil
		}
		th.BeginPhase(pmem.PhaseUpdate)
		lv := towerLevel(key)
		n, err := l.pool.Alloc(nodeSize, pmem.LineSize)
		if err != nil {
			return err
		}
		th.Store(n+offKey, key)
		th.Store(n+offVal, val)
		th.Store(n+offMeta, uint64(lv))
		for i := 0; i < lv; i++ {
			th.Store(n+offNext+int64(i)*8, uint64(succs[i]))
		}
		// The node is fully persistent before it becomes reachable.
		th.Persist(n, nodeSize)
		// Publish: the bottom-level link is the failure-atomic commit.
		if !th.CAS(preds[0]+offNext, uint64(cand), uint64(n)) {
			l.pool.Free(n, nodeSize)
			th.BeginPhase(pmem.PhaseSearch)
			continue // a racing writer changed the neighbourhood
		}
		th.Flush(preds[0]+offNext, 8)
		// Upper levels are an optimisation: plain CAS, no flush needed
		// (recovery rebuilds them from the bottom list).
		for i := 1; i < lv; i++ {
			if !th.CAS(preds[i]+offNext+int64(i)*8, uint64(succs[i]), uint64(n)) {
				break // lost an index race: leave lower towers linked
			}
		}
		return nil
	}
}

// Get returns the value stored under key; the search is lock-free.
func (l *List) Get(th *pmem.Thread, key uint64) (uint64, bool) {
	var preds, succs [MaxLevel]int64
	c := l.findPreds(th, key, &preds, &succs)
	if c != 0 && th.Load(c+offKey) == key {
		return th.Load(c + offVal), true
	}
	return 0, false
}

// Delete unlinks key from the bottom list (the failure-atomic commit) and
// best-effort from the index levels. The node is not reused, so concurrent
// lock-free readers never chase recycled memory.
func (l *List) Delete(th *pmem.Thread, key uint64) bool {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	var preds, succs [MaxLevel]int64
	for {
		cand := l.findPreds(th, key, &preds, &succs)
		if cand == 0 || th.Load(cand+offKey) != key {
			return false
		}
		th.BeginPhase(pmem.PhaseUpdate)
		// Unlink top-down so index levels never point at a node the
		// bottom list has dropped.
		lv := int(th.Load(cand + offMeta))
		for i := lv - 1; i >= 1; i-- {
			if next(th, preds[i], i) == cand {
				th.CAS(preds[i]+offNext+int64(i)*8, uint64(cand), uint64(next(th, cand, i)))
			}
		}
		if th.CAS(preds[0]+offNext, uint64(cand), uint64(next(th, cand, 0))) {
			th.Flush(preds[0]+offNext, 8)
			return true
		}
		th.BeginPhase(pmem.PhaseSearch) // raced; retry
	}
}

// Scan visits pairs with lo <= key <= hi ascending. It walks the bottom
// list: every hop is a dependent pointer chase, which is why the paper sees
// up to 20x slower range queries than FAST+FAIR.
func (l *List) Scan(th *pmem.Thread, lo, hi uint64, fn func(key, val uint64) bool) {
	var preds, succs [MaxLevel]int64
	n := l.findPreds(th, lo, &preds, &succs)
	for n != 0 {
		k := th.Load(n + offKey)
		if k > hi {
			return
		}
		if k >= lo && !fn(k, th.Load(n+offVal)) {
			return
		}
		n = next(th, n, 0)
	}
}

// Len counts the keys (test/diagnostic helper).
func (l *List) Len(th *pmem.Thread) int {
	c := 0
	for n := next(th, l.head, 0); n != 0; n = next(th, n, 0) {
		c++
	}
	return c
}

// Recover rebuilds the volatile index levels from the persistent bottom
// list. Needed after a crash: upper-level pointers are unflushed hints.
func (l *List) Recover(th *pmem.Thread) {
	// Reset head's upper levels.
	var preds [MaxLevel]int64
	for i := 1; i < MaxLevel; i++ {
		th.Store(l.head+offNext+int64(i)*8, 0)
		preds[i] = l.head
	}
	for n := next(th, l.head, 0); n != 0; n = next(th, n, 0) {
		lv := int(th.Load(n + offMeta))
		if lv < 1 || lv > MaxLevel {
			lv = towerLevel(th.Load(n + offKey))
		}
		for i := 1; i < lv; i++ {
			th.Store(n+offNext+int64(i)*8, 0)
			th.Store(preds[i]+offNext+int64(i)*8, uint64(n))
			preds[i] = n
		}
	}
	th.Persist(l.head, nodeSize)
}

// CheckInvariants verifies the bottom list is strictly sorted and the index
// levels only reference reachable, correctly-ordered nodes.
func (l *List) CheckInvariants(th *pmem.Thread) error {
	seen := map[int64]bool{l.head: true}
	var prev uint64
	first := true
	for n := next(th, l.head, 0); n != 0; n = next(th, n, 0) {
		k := th.Load(n + offKey)
		if !first && k <= prev {
			return fmt.Errorf("skiplist: bottom level unsorted at %d", k)
		}
		prev, first = k, false
		seen[n] = true
	}
	for lv := 1; lv < MaxLevel; lv++ {
		var pk uint64
		pf := true
		for n := next(th, l.head, lv); n != 0; n = next(th, n, lv) {
			if !seen[n] {
				return fmt.Errorf("skiplist: level %d references unreachable node %d", lv, n)
			}
			k := th.Load(n + offKey)
			if !pf && k <= pk {
				return fmt.Errorf("skiplist: level %d unsorted at %d", lv, k)
			}
			pk, pf = k, false
		}
	}
	return nil
}
