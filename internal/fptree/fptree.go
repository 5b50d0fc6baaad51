// Package fptree implements FP-tree (Oukid et al., SIGMOD'16), the selective-
// persistence baseline: leaf nodes live in PM, inner nodes in volatile DRAM
// (plain Go memory here). Leaves keep unsorted records guarded by a bitmap
// plus one-byte key fingerprints that cut probe cache misses; splits are
// protected by a leaf-level micro-log. Because the inner levels are volatile,
// searches touch PM only at the leaf — the property that makes FP-tree search
// faster than FAST+FAIR at high PM read latency (Figure 5b) — but recovery
// must rebuild every inner node from the leaf chain, so instant recovery is
// impossible (§V of the paper; measured by RebuildInner).
//
// The original uses Intel TSX to guard inner-node concurrency; Go has no
// HTM, so a global reader/writer lock over the volatile structure plus
// exclusive per-leaf pmem latches substitutes. The read path still scales
// to several threads and saturates the way Figure 7 shows.
package fptree

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/pmem"
)

const (
	offBitmap = 0
	offNext   = 8
	offLock   = 16 // volatile leaf latch word (pmem.Thread.Latch)
	offFP     = 32 // fingerprint bytes
	offRecs   = 96

	innerFanout = 64
)

// Options configures a Tree.
type Options struct {
	// LeafSize in bytes (multiple of 64). Default 1024, the paper's
	// fastest configuration.
	LeafSize int
	// RootSlot anchors the head leaf; RootSlot+4 holds the micro-log.
	RootSlot int
}

func (o *Options) fill() error {
	if o.LeafSize == 0 {
		o.LeafSize = 1024
	}
	if o.LeafSize < 256 || o.LeafSize%pmem.LineSize != 0 {
		return fmt.Errorf("fptree: bad LeafSize %d", o.LeafSize)
	}
	if o.RootSlot < 0 || o.RootSlot > 3 {
		return fmt.Errorf("fptree: RootSlot %d out of range", o.RootSlot)
	}
	return nil
}

// inner is a volatile internal node: child i covers keys < keys[i] ... the
// usual B+-tree routing, children are inner nodes or leaf offsets.
type inner struct {
	keys   []uint64
	kids   []*inner
	leaves []int64 // set on the last inner level instead of kids
}

// Tree is an FP-tree over a pmem.Pool.
type Tree struct {
	pool     *pmem.Pool
	opts     Options
	leafSize int64
	cap      int

	mu   sync.RWMutex // guards the volatile inner structure (TSX substitute)
	root *inner
	head int64 // first leaf (persistent anchor)
	log  int64
}

// New creates an empty tree.
func New(p *pmem.Pool, th *pmem.Thread, opts Options) (*Tree, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	t := handle(p, opts)
	leaf, err := t.allocLeaf(th)
	if err != nil {
		return nil, err
	}
	th.Flush(leaf, t.leafSize)
	p.SetRoot(th, opts.RootSlot, leaf)
	t.head = leaf
	t.root = &inner{leaves: []int64{leaf}}
	if err := t.initLog(th); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree: it replays the micro-log and rebuilds
// the volatile inner levels (FP-tree's non-instant recovery).
func Open(p *pmem.Pool, th *pmem.Thread, opts Options) (*Tree, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	t := handle(p, opts)
	t.head = p.Root(th, opts.RootSlot)
	if t.head == 0 {
		return nil, fmt.Errorf("fptree: no tree at root slot %d", opts.RootSlot)
	}
	if err := t.initLog(th); err != nil {
		return nil, err
	}
	t.replayLog(th)
	t.RebuildInner(th)
	return t, nil
}

func handle(p *pmem.Pool, opts Options) *Tree {
	c := (opts.LeafSize - offRecs) / 16
	if c > 56 {
		c = 56 // fingerprint area is 56 bytes
	}
	return &Tree{pool: p, opts: opts, leafSize: int64(opts.LeafSize), cap: c}
}

// Pool returns the backing pool.
func (t *Tree) Pool() *pmem.Pool { return t.pool }

func (t *Tree) initLog(th *pmem.Thread) error {
	slot := t.opts.RootSlot + 4
	off := t.pool.Root(th, slot)
	if off == 0 {
		var err error
		off, err = t.pool.Alloc(24, pmem.LineSize)
		if err != nil {
			return err
		}
		th.Flush(off, 24)
		t.pool.SetRoot(th, slot, off)
	}
	t.log = off
	return nil
}

func (t *Tree) allocLeaf(th *pmem.Thread) (int64, error) {
	return t.pool.Alloc(t.leafSize, pmem.LineSize)
}

func fingerprint(key uint64) byte {
	x := key * 0x9e3779b97f4a7c15
	return byte(x >> 56)
}

func recOff(leaf int64, i int) int64 { return leaf + offRecs + int64(i)*16 }

func (t *Tree) fpByte(th *pmem.Thread, leaf int64, i int) byte {
	w := th.Load(leaf + offFP + int64(i/8*8))
	return byte(w >> uint(i%8*8))
}

func (t *Tree) setFPByte(th *pmem.Thread, leaf int64, i int, b byte) {
	off := leaf + offFP + int64(i/8*8)
	w := th.Load(off)
	sh := uint(i % 8 * 8)
	th.Store(off, w&^(uint64(0xff)<<sh)|uint64(b)<<sh)
}

// --- descent ---------------------------------------------------------------

// findLeaf routes to the leaf covering key. Caller holds t.mu (read or
// write). Inner access is plain Go memory: no PM latency, the FP-tree
// advantage.
func (t *Tree) findLeaf(key uint64) int64 {
	n := t.root
	for n.leaves == nil {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
		n = n.kids[i]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	return n.leaves[i]
}

// Get returns the value stored under key.
func (t *Tree) Get(th *pmem.Thread, key uint64) (uint64, bool) {
	t.mu.RLock()
	leaf := t.findLeaf(key)
	t.mu.RUnlock()
	th.Latch(leaf + offLock)
	defer th.Unlatch(leaf + offLock)
	i := t.probe(th, leaf, key)
	if i < 0 {
		return 0, false
	}
	return th.Load(recOff(leaf, i) + 8), true
}

// probe finds key's record slot via fingerprints, or -1.
func (t *Tree) probe(th *pmem.Thread, leaf int64, key uint64) int {
	bm := th.Load(leaf + offBitmap)
	fp := fingerprint(key)
	for i := 0; i < t.cap; i++ {
		if bm&(uint64(1)<<uint(i)) == 0 || t.fpByte(th, leaf, i) != fp {
			continue
		}
		if th.Load(recOff(leaf, i)) == key {
			return i
		}
	}
	return -1
}

// Insert stores val under key (upsert; updates are out-of-place with an
// atomic bitmap flip, as in the FP-tree paper).
func (t *Tree) Insert(th *pmem.Thread, key, val uint64) error {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	for {
		t.mu.RLock()
		leaf := t.findLeaf(key)
		th.Latch(leaf + offLock)
		bm := th.Load(leaf + offBitmap)
		free := -1
		for i := 0; i < t.cap; i++ {
			if bm&(uint64(1)<<uint(i)) == 0 {
				free = i
				break
			}
		}
		old := t.probe(th, leaf, key)
		if free < 0 && old < 0 {
			// Full: split under the writer lock, then retry.
			th.Unlatch(leaf + offLock)
			t.mu.RUnlock()
			if err := t.splitLeaf(th, key); err != nil {
				return err
			}
			continue
		}
		th.BeginPhase(pmem.PhaseUpdate)
		if old >= 0 && free < 0 {
			// No free slot for an out-of-place update: overwrite in
			// place (8-byte atomic), still failure-atomic.
			th.Store(recOff(leaf, old)+8, val)
			th.Flush(recOff(leaf, old)+8, 8)
		} else {
			th.Store(recOff(leaf, free), key)
			th.Store(recOff(leaf, free)+8, val)
			t.setFPByte(th, leaf, free, fingerprint(key))
			th.Flush(recOff(leaf, free), 16)
			th.Flush(leaf+offFP+int64(free/8*8), 8)
			nbm := bm | uint64(1)<<uint(free)
			if old >= 0 {
				nbm &^= uint64(1) << uint(old)
			}
			th.Store(leaf+offBitmap, nbm) // atomic commit
			th.Flush(leaf+offBitmap, 8)
		}
		th.Unlatch(leaf + offLock)
		t.mu.RUnlock()
		return nil
	}
}

// Delete removes key: one atomic bitmap store.
func (t *Tree) Delete(th *pmem.Thread, key uint64) bool {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	t.mu.RLock()
	leaf := t.findLeaf(key)
	th.Latch(leaf + offLock)
	defer func() {
		th.Unlatch(leaf + offLock)
		t.mu.RUnlock()
	}()
	i := t.probe(th, leaf, key)
	if i < 0 {
		return false
	}
	th.BeginPhase(pmem.PhaseUpdate)
	bm := th.Load(leaf + offBitmap)
	th.Store(leaf+offBitmap, bm&^(uint64(1)<<uint(i)))
	th.Flush(leaf+offBitmap, 8)
	return true
}

// splitLeaf splits the full leaf covering key under the global writer lock,
// journalled in the micro-log.
func (t *Tree) splitLeaf(th *pmem.Thread, key uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := t.findLeaf(key)
	th.Latch(leaf + offLock)
	defer th.Unlatch(leaf + offLock)

	bm := th.Load(leaf + offBitmap)
	type rec struct {
		k uint64
		i int
	}
	var recs []rec
	for i := 0; i < t.cap; i++ {
		if bm&(uint64(1)<<uint(i)) != 0 {
			recs = append(recs, rec{th.Load(recOff(leaf, i)), i})
		}
	}
	if len(recs) < t.cap {
		return nil // someone else split meanwhile; retry outside
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].k < recs[b].k })
	sep := recs[len(recs)/2].k // upper half: keys >= sep

	sib, err := t.allocLeaf(th)
	if err != nil {
		return err
	}
	// Micro-log: record the split intent before mutating shared state.
	th.Store(t.log+8, uint64(leaf))
	th.Store(t.log+16, uint64(sib))
	th.Flush(t.log+8, 16)
	th.Store(t.log, 1)
	th.Flush(t.log, 8)

	// Copy the upper half into the sibling and persist it fully.
	var moved uint64
	j := 0
	for _, r := range recs[len(recs)/2:] {
		th.Store(recOff(sib, j), th.Load(recOff(leaf, r.i)))
		th.Store(recOff(sib, j)+8, th.Load(recOff(leaf, r.i)+8))
		t.setFPByte(th, sib, j, t.fpByte(th, leaf, r.i))
		moved |= uint64(1) << uint(r.i)
		j++
	}
	th.Store(sib+offBitmap, uint64(1)<<uint(j)-1)
	th.Store(sib+offNext, th.Load(leaf+offNext))
	th.Flush(sib, t.leafSize)

	// Link the sibling, then prune the moved records with one store.
	th.Store(leaf+offNext, uint64(sib))
	th.Flush(leaf+offNext, 8)
	th.Store(leaf+offBitmap, bm&^moved)
	th.Flush(leaf+offBitmap, 8)

	// Release the log and update the volatile inner structure.
	th.Store(t.log, 0)
	th.Flush(t.log, 8)
	t.innerInsert(sep, sib)
	return nil
}

// innerInsert installs (sep → sib) in the volatile structure. Caller holds
// the writer lock.
func (t *Tree) innerInsert(sep uint64, sib int64) {
	newRoot := t.insertRec(t.root, sep, sib)
	if newRoot != nil {
		t.root = newRoot
	}
}

// insertRec inserts into n's subtree; returns a replacement root when n
// split.
func (t *Tree) insertRec(n *inner, sep uint64, sib int64) *inner {
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > sep })
	if n.leaves != nil {
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sep
		n.leaves = append(n.leaves, 0)
		copy(n.leaves[i+2:], n.leaves[i+1:])
		n.leaves[i+1] = sib
	} else {
		if r := t.insertRec(n.kids[i], sep, sib); r != nil {
			// Child split: splice its separator here.
			n.keys = append(n.keys, 0)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = r.keys[0]
			n.kids = append(n.kids, nil)
			copy(n.kids[i+2:], n.kids[i+1:])
			n.kids[i] = r.kids[0]
			n.kids[i+1] = r.kids[1]
		}
	}
	if len(n.keys) <= innerFanout {
		return nil
	}
	// Split n; return a mini-root (1 key, 2 children) for the caller.
	// Slices are copied, not re-sliced: n keeps the backing array and
	// will append into it again.
	mid := len(n.keys) / 2
	sepUp := n.keys[mid]
	right := &inner{keys: append([]uint64{}, n.keys[mid+1:]...)}
	n.keys = append([]uint64{}, n.keys[:mid]...)
	if n.leaves != nil {
		right.leaves = append([]int64{}, n.leaves[mid+1:]...)
		n.leaves = append([]int64{}, n.leaves[:mid+1]...)
	} else {
		right.kids = append([]*inner{}, n.kids[mid+1:]...)
		n.kids = append([]*inner{}, n.kids[:mid+1]...)
	}
	if t.root == n {
		t.root = &inner{keys: []uint64{sepUp}, kids: []*inner{n, right}}
		return nil
	}
	return &inner{keys: []uint64{sepUp}, kids: []*inner{n, right}}
}

// Scan visits pairs with lo <= key <= hi ascending. Each leaf is snapshotted
// under its lock and sorted (records are unsorted in PM — the read overhead
// the paper attributes to append-only designs).
func (t *Tree) Scan(th *pmem.Thread, lo, hi uint64, fn func(key, val uint64) bool) {
	t.mu.RLock()
	leaf := t.findLeaf(lo)
	t.mu.RUnlock()
	type kv struct{ k, v uint64 }
	var buf []kv
	for leaf != 0 {
		th.Latch(leaf + offLock)
		bm := th.Load(leaf + offBitmap)
		buf = buf[:0]
		for i := 0; i < t.cap; i++ {
			if bm&(uint64(1)<<uint(i)) != 0 {
				buf = append(buf, kv{th.Load(recOff(leaf, i)), th.Load(recOff(leaf, i) + 8)})
			}
		}
		next := int64(th.Load(leaf + offNext))
		th.Unlatch(leaf + offLock)
		sort.Slice(buf, func(a, b int) bool { return buf[a].k < buf[b].k })
		for _, r := range buf {
			if r.k < lo {
				continue
			}
			if r.k > hi {
				return
			}
			if !fn(r.k, r.v) {
				return
			}
		}
		leaf = next
	}
}

// Len counts keys (test helper).
func (t *Tree) Len(th *pmem.Thread) int {
	c := 0
	t.Scan(th, 0, ^uint64(0), func(uint64, uint64) bool { c++; return true })
	return c
}

// replayLog finishes or discards a crashed split.
func (t *Tree) replayLog(th *pmem.Thread) {
	if th.Load(t.log) != 1 {
		return
	}
	leaf := int64(th.Load(t.log + 8))
	sib := int64(th.Load(t.log + 16))
	if int64(th.Load(leaf+offNext)) == sib {
		// The sibling is linked: complete the prune by dropping from
		// the old leaf every record that also exists in the sibling.
		sbm := th.Load(sib + offBitmap)
		sibKeys := map[uint64]bool{}
		for i := 0; i < t.cap; i++ {
			if sbm&(uint64(1)<<uint(i)) != 0 {
				sibKeys[th.Load(recOff(sib, i))] = true
			}
		}
		bm := th.Load(leaf + offBitmap)
		nbm := bm
		for i := 0; i < t.cap; i++ {
			if bm&(uint64(1)<<uint(i)) != 0 && sibKeys[th.Load(recOff(leaf, i))] {
				nbm &^= uint64(1) << uint(i)
			}
		}
		th.Store(leaf+offBitmap, nbm)
		th.Flush(leaf+offBitmap, 8)
	}
	th.Store(t.log, 0)
	th.Flush(t.log, 8)
}

// RebuildInner reconstructs the volatile inner levels from the persistent
// leaf chain. This is FP-tree's whole-index recovery cost (the reason the
// paper says strict instant recovery is impossible); callers can time it.
func (t *Tree) RebuildInner(th *pmem.Thread) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var leaves []int64
	var seps []uint64 // low key of each kept leaf after the first
	for leaf := t.head; leaf != 0; leaf = int64(th.Load(leaf + offNext)) {
		bm := th.Load(leaf + offBitmap)
		low := ^uint64(0)
		for i := 0; i < t.cap; i++ {
			if bm&(uint64(1)<<uint(i)) != 0 {
				if k := th.Load(recOff(leaf, i)); k < low {
					low = k
				}
			}
		}
		if low == ^uint64(0) && len(leaves) > 0 {
			continue // empty leaf: routing skips it, the chain keeps it
		}
		if len(leaves) > 0 {
			seps = append(seps, low)
		}
		leaves = append(leaves, leaf)
	}
	// Bottom level: group leaves into inner nodes of <= innerFanout kids.
	level := make([]*inner, 0, len(leaves)/innerFanout+1)
	var levelSeps []uint64
	for start := 0; start < len(leaves); start += innerFanout {
		end := start + innerFanout
		if end > len(leaves) {
			end = len(leaves)
		}
		child := &inner{
			leaves: append([]int64{}, leaves[start:end]...),
			keys:   append([]uint64{}, seps[start:end-1]...),
		}
		if start > 0 {
			levelSeps = append(levelSeps, seps[start-1])
		}
		level = append(level, child)
	}
	// Upper levels until a single root remains.
	for len(level) > 1 {
		var up []*inner
		var upSeps []uint64
		for start := 0; start < len(level); start += innerFanout {
			end := start + innerFanout
			if end > len(level) {
				end = len(level)
			}
			node := &inner{
				kids: append([]*inner{}, level[start:end]...),
				keys: append([]uint64{}, levelSeps[start:end-1]...),
			}
			if start > 0 {
				upSeps = append(upSeps, levelSeps[start-1])
			}
			up = append(up, node)
		}
		level, levelSeps = up, upSeps
	}
	t.root = level[0]
}

// CheckInvariants validates leaf-chain order (across leaves; in-leaf records
// are unsorted by design) and inner routing consistency.
func (t *Tree) CheckInvariants(th *pmem.Thread) error {
	var prevMax uint64
	first := true
	for leaf := t.head; leaf != 0; leaf = int64(th.Load(leaf + offNext)) {
		bm := th.Load(leaf + offBitmap)
		lo, hi := ^uint64(0), uint64(0)
		any := false
		seen := map[uint64]bool{}
		for i := 0; i < t.cap; i++ {
			if bm&(uint64(1)<<uint(i)) == 0 {
				continue
			}
			k := th.Load(recOff(leaf, i))
			if seen[k] {
				return fmt.Errorf("fptree: duplicate key %d in leaf %d", k, leaf)
			}
			seen[k] = true
			if t.fpByte(th, leaf, i) != fingerprint(k) {
				return fmt.Errorf("fptree: bad fingerprint for key %d", k)
			}
			any = true
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		if any {
			if !first && lo <= prevMax {
				return fmt.Errorf("fptree: leaf chain overlap at %d", lo)
			}
			prevMax, first = hi, false
		}
	}
	// Every key must be routable.
	bad := ""
	t.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
		if got, ok := t.Get(th, k); !ok || got != v {
			bad = fmt.Sprintf("key %d unroutable (%d,%v)", k, got, ok)
			return false
		}
		return true
	})
	if bad != "" {
		return fmt.Errorf("fptree: %s", bad)
	}
	return nil
}
