// Package blink implements a Lehman–Yao B-link tree, the volatile
// concurrency reference of Figure 7. It runs over the same pmem arena as
// the persistent indexes so reads pay identical memory latency, but it
// issues no flushes or fences — it is not failure-atomic, exactly as the
// paper notes ("B-link tree is not designed to provide failure-atomicity").
//
// Unlike FAST+FAIR, B-link search is not lock-free: readers acquire a shared
// latch on every node they visit (the paper's B-link uses std::mutex, which
// saturates even earlier). That per-node latch traffic is what caps its
// search scalability at a handful of threads in Figure 7(a).
package blink

import (
	"fmt"
	"sync"

	"repro/internal/pmem"
)

const (
	offMeta     = 0 // level
	offLeftmost = 8
	offSibling  = 16
	offCount    = 24
	offLock     = 32
	offLowKey   = 40
	headerBytes = 64
)

// Options configures a Tree.
type Options struct {
	// NodeSize in bytes (multiple of 64). Default 512 to match the
	// FAST+FAIR configuration.
	NodeSize int
	RootSlot int
}

func (o *Options) fill() error {
	if o.NodeSize == 0 {
		o.NodeSize = 512
	}
	if o.NodeSize < 128 || o.NodeSize%pmem.LineSize != 0 {
		return fmt.Errorf("blink: bad NodeSize %d", o.NodeSize)
	}
	if o.RootSlot < 0 || o.RootSlot > 7 {
		return fmt.Errorf("blink: RootSlot %d out of range", o.RootSlot)
	}
	return nil
}

// Tree is a thread-safe volatile B-link tree.
type Tree struct {
	pool   *pmem.Pool
	opts   Options
	cap    int
	rootMu sync.Mutex
}

// New creates an empty tree.
func New(p *pmem.Pool, th *pmem.Thread, opts Options) (*Tree, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	t := &Tree{pool: p, opts: opts, cap: (opts.NodeSize - headerBytes) / 16}
	root, err := t.allocNode(th, 0)
	if err != nil {
		return nil, err
	}
	p.SetRoot(th, opts.RootSlot, root)
	return t, nil
}

// Pool returns the backing pool.
func (t *Tree) Pool() *pmem.Pool { return t.pool }

func (t *Tree) allocNode(th *pmem.Thread, level int) (int64, error) {
	n, err := t.pool.Alloc(int64(t.opts.NodeSize), pmem.LineSize)
	if err != nil {
		return 0, err
	}
	th.StoreVolatile(n+offMeta, uint64(level))
	return n, nil
}

func recOff(n int64, i int) int64 { return n + headerBytes + int64(i)*16 }

func (t *Tree) key(th *pmem.Thread, n int64, i int) uint64 { return th.Load(recOff(n, i)) }
func (t *Tree) val(th *pmem.Thread, n int64, i int) uint64 { return th.Load(recOff(n, i) + 8) }
func (t *Tree) count(th *pmem.Thread, n int64) int         { return int(th.Load(n + offCount)) }
func (t *Tree) level(th *pmem.Thread, n int64) int         { return int(th.Load(n + offMeta)) }
func (t *Tree) sibling(th *pmem.Thread, n int64) int64     { return int64(th.Load(n + offSibling)) }
func (t *Tree) lowKey(th *pmem.Thread, n int64) uint64     { return th.Load(n + offLowKey) }

// Stores are volatile-style plain stores: B-link persists nothing.
func (t *Tree) store(th *pmem.Thread, off int64, v uint64) { th.StoreVolatile(off, v) }

// --- search ------------------------------------------------------------------

// lowerBound returns the first index with key(n,i) >= k (binary search —
// B-link has no store-ordering constraints, so it may).
func (t *Tree) lowerBound(th *pmem.Thread, n int64, k uint64) int {
	lo, hi := 0, t.count(th, n)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.key(th, n, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descendToLeaf returns the leaf covering key, read-latching every visited
// node (the scalability cost Figure 7 measures).
func (t *Tree) descendToLeaf(th *pmem.Thread, key uint64) int64 {
	n := t.pool.Root(th, t.opts.RootSlot)
	for {
		th.RLatch(n + offLock)
		if sib := t.sibling(th, n); sib != 0 && key >= t.lowKey(th, sib) {
			th.RUnlatch(n + offLock)
			n = sib
			continue
		}
		if t.level(th, n) == 0 {
			th.RUnlatch(n + offLock)
			return n
		}
		child := t.route(th, n, key)
		th.RUnlatch(n + offLock)
		n = child
	}
}

func (t *Tree) route(th *pmem.Thread, n int64, key uint64) int64 {
	i := t.lowerBound(th, n, key)
	cnt := t.count(th, n)
	if i < cnt && t.key(th, n, i) == key {
		return int64(t.val(th, n, i))
	}
	if i == 0 {
		return int64(th.Load(n + offLeftmost))
	}
	return int64(t.val(th, n, i-1))
}

// Get returns the value stored under key.
func (t *Tree) Get(th *pmem.Thread, key uint64) (uint64, bool) {
	n := t.descendToLeaf(th, key)
	for {
		th.RLatch(n + offLock)
		if sib := t.sibling(th, n); sib != 0 && key >= t.lowKey(th, sib) {
			th.RUnlatch(n + offLock)
			n = sib
			continue
		}
		i := t.lowerBound(th, n, key)
		var v uint64
		found := i < t.count(th, n) && t.key(th, n, i) == key
		if found {
			v = t.val(th, n, i)
		}
		th.RUnlatch(n + offLock)
		return v, found
	}
}

// Insert stores val under key (upsert).
func (t *Tree) Insert(th *pmem.Thread, key, val uint64) error {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	n := t.descendToLeaf(th, key)
	th.Latch(n + offLock)
	n = t.moveRightLocked(th, n, key)
	th.BeginPhase(pmem.PhaseUpdate)
	return t.insertLocked(th, n, 0, key, val)
}

func (t *Tree) moveRightLocked(th *pmem.Thread, n int64, key uint64) int64 {
	for {
		sib := t.sibling(th, n)
		if sib == 0 || key < t.lowKey(th, sib) {
			return n
		}
		th.Unlatch(n + offLock)
		th.Latch(sib + offLock)
		n = sib
	}
}

// insertLocked inserts into write-latched node n (releasing the latch).
func (t *Tree) insertLocked(th *pmem.Thread, n int64, level int, key, val uint64) error {
	cnt := t.count(th, n)
	i := t.lowerBound(th, n, key)
	if i < cnt && t.key(th, n, i) == key {
		t.store(th, recOff(n, i)+8, val)
		th.Unlatch(n + offLock)
		return nil
	}
	if cnt < t.cap {
		for j := cnt; j > i; j-- {
			t.store(th, recOff(n, j), t.key(th, n, j-1))
			t.store(th, recOff(n, j)+8, t.val(th, n, j-1))
		}
		t.store(th, recOff(n, i), key)
		t.store(th, recOff(n, i)+8, val)
		t.store(th, n+offCount, uint64(cnt+1))
		th.Unlatch(n + offLock)
		return nil
	}
	return t.split(th, n, level, key, val)
}

// split performs the Lehman–Yao half-split of latched node n.
func (t *Tree) split(th *pmem.Thread, n int64, level int, key, val uint64) error {
	cnt := t.cap
	median := cnt / 2
	sepKey := t.key(th, n, median)
	sib, err := t.allocNode(th, level)
	if err != nil {
		th.Unlatch(n + offLock)
		return err
	}
	t.store(th, sib+offLowKey, sepKey)
	scnt := 0
	from := median
	if level > 0 {
		t.store(th, sib+offLeftmost, t.val(th, n, median))
		from = median + 1
	}
	for i := from; i < cnt; i++ {
		t.store(th, recOff(sib, scnt), t.key(th, n, i))
		t.store(th, recOff(sib, scnt)+8, t.val(th, n, i))
		scnt++
	}
	t.store(th, sib+offCount, uint64(scnt))
	t.store(th, sib+offSibling, uint64(t.sibling(th, n)))
	t.store(th, n+offSibling, uint64(sib))
	t.store(th, n+offCount, uint64(median))
	if key < sepKey {
		// Re-insert into the (now non-full) left node.
		cnt = median
		i := t.lowerBound(th, n, key)
		for j := cnt; j > i; j-- {
			t.store(th, recOff(n, j), t.key(th, n, j-1))
			t.store(th, recOff(n, j)+8, t.val(th, n, j-1))
		}
		t.store(th, recOff(n, i), key)
		t.store(th, recOff(n, i)+8, val)
		t.store(th, n+offCount, uint64(cnt+1))
	} else {
		i := t.lowerBound(th, sib, key)
		for j := scnt; j > i; j-- {
			t.store(th, recOff(sib, j), t.key(th, sib, j-1))
			t.store(th, recOff(sib, j)+8, t.val(th, sib, j-1))
		}
		t.store(th, recOff(sib, i), key)
		t.store(th, recOff(sib, i)+8, val)
		t.store(th, sib+offCount, uint64(scnt+1))
	}
	th.Unlatch(n + offLock)
	return t.insertParent(th, n, level, sepKey, sib)
}

func (t *Tree) insertParent(th *pmem.Thread, child int64, level int, sepKey uint64, sib int64) error {
	for {
		root := t.pool.Root(th, t.opts.RootSlot)
		if root == child {
			t.rootMu.Lock()
			if t.pool.Root(th, t.opts.RootSlot) != child {
				t.rootMu.Unlock()
				continue
			}
			nr, err := t.allocNode(th, level+1)
			if err != nil {
				t.rootMu.Unlock()
				return err
			}
			t.store(th, nr+offLeftmost, uint64(child))
			t.store(th, nr+offLowKey, t.lowKey(th, child))
			t.store(th, recOff(nr, 0), sepKey)
			t.store(th, recOff(nr, 0)+8, uint64(sib))
			t.store(th, nr+offCount, 1)
			t.pool.SetRoot(th, t.opts.RootSlot, nr)
			t.rootMu.Unlock()
			return nil
		}
		if t.level(th, root) <= level {
			continue // a root grow for our level is in flight elsewhere
		}
		p := root
		for t.level(th, p) > level+1 {
			th.RLatch(p + offLock)
			if s := t.sibling(th, p); s != 0 && sepKey >= t.lowKey(th, s) {
				th.RUnlatch(p + offLock)
				p = s
				continue
			}
			c := t.route(th, p, sepKey)
			th.RUnlatch(p + offLock)
			p = c
		}
		th.Latch(p + offLock)
		p = t.moveRightLocked(th, p, sepKey)
		// Dedup: the separator may already be present.
		i := t.lowerBound(th, p, sepKey)
		if i < t.count(th, p) && t.key(th, p, i) == sepKey {
			th.Unlatch(p + offLock)
			return nil
		}
		return t.insertLocked(th, p, level+1, sepKey, uint64(sib))
	}
}

// Delete removes key, reporting whether it was present. Underflowed nodes
// are left in place (the classic B-link simplification).
func (t *Tree) Delete(th *pmem.Thread, key uint64) bool {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	n := t.descendToLeaf(th, key)
	th.Latch(n + offLock)
	n = t.moveRightLocked(th, n, key)
	th.BeginPhase(pmem.PhaseUpdate)
	cnt := t.count(th, n)
	i := t.lowerBound(th, n, key)
	if i >= cnt || t.key(th, n, i) != key {
		th.Unlatch(n + offLock)
		return false
	}
	for j := i; j < cnt-1; j++ {
		t.store(th, recOff(n, j), t.key(th, n, j+1))
		t.store(th, recOff(n, j)+8, t.val(th, n, j+1))
	}
	t.store(th, n+offCount, uint64(cnt-1))
	th.Unlatch(n + offLock)
	return true
}

// Scan visits pairs with lo <= key <= hi ascending, snapshotting each leaf
// under a read latch.
func (t *Tree) Scan(th *pmem.Thread, lo, hi uint64, fn func(key, val uint64) bool) {
	n := t.descendToLeaf(th, lo)
	var keys, vals []uint64
	last, first := lo, true
	for n != 0 {
		th.RLatch(n + offLock)
		cnt := t.count(th, n)
		keys, vals = keys[:0], vals[:0]
		for i := 0; i < cnt; i++ {
			keys = append(keys, t.key(th, n, i))
			vals = append(vals, t.val(th, n, i))
		}
		sib := t.sibling(th, n)
		var fence uint64
		if sib != 0 {
			fence = t.lowKey(th, sib)
		}
		th.RUnlatch(n + offLock)
		for i, k := range keys {
			if k < lo || k > hi || (!first && k <= last) {
				continue
			}
			last, first = k, false
			if !fn(k, vals[i]) {
				return
			}
		}
		if sib == 0 || fence > hi {
			return
		}
		n = sib
	}
}

// Len counts keys (test helper).
func (t *Tree) Len(th *pmem.Thread) int {
	c := 0
	t.Scan(th, 0, ^uint64(0), func(uint64, uint64) bool { c++; return true })
	return c
}

// CheckInvariants validates sorted nodes and the global leaf-chain order on
// a quiescent tree.
func (t *Tree) CheckInvariants(th *pmem.Thread) error {
	// Find the leftmost leaf.
	n := t.pool.Root(th, t.opts.RootSlot)
	for t.level(th, n) > 0 {
		n = int64(th.Load(n + offLeftmost))
	}
	var prev uint64
	first := true
	for ; n != 0; n = t.sibling(th, n) {
		cnt := t.count(th, n)
		for i := 0; i < cnt; i++ {
			k := t.key(th, n, i)
			if !first && k <= prev {
				return fmt.Errorf("blink: leaf chain unsorted at %d", k)
			}
			prev, first = k, false
		}
	}
	return nil
}
