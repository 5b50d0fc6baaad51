// Package wbtree implements wB+-tree with slot-array+bitmap nodes (Chen &
// Jin, VLDB'15), the "wB+-tree" baseline of the paper. Records are stored
// unsorted and appended; a one-byte-per-entry slot array keeps the sorted
// order, and a bitmap word is the atomic validity commit for both records
// and slot array. An insert therefore costs at least four cache-line
// flushes (invalidate slot array, record, slot array, bitmap commit) — the
// count the paper contrasts with FAST+FAIR's ~4.2 total including splits —
// and structure modifications (splits) need a redo log.
//
// As in the paper, wB+-tree is evaluated single-threaded: the structure has
// no concurrency protocol of its own.
package wbtree

import (
	"fmt"

	"repro/internal/pmem"
)

const (
	offBitmap   = 0
	offNext     = 8
	offLeftmost = 16
	offMeta     = 24
	offSlotArr  = 32 // 64 bytes: [0] = count, [1..] = sorted record indices
	offRecords  = 96

	slotValidBit = uint64(1) // bitmap bit 0: slot array is valid
	maxCap       = 62        // bitmap bits 1..62 map to record indices 0..61
)

// Options configures a Tree.
type Options struct {
	// NodeSize in bytes (multiple of 64). Default 1024, the paper's
	// configuration ("each node can hold no more than 64 entries").
	NodeSize int
	// RootSlot anchors the tree; must be <= 3 (slot RootSlot+4 holds the
	// split-log area).
	RootSlot int
}

func (o *Options) fill() error {
	if o.NodeSize == 0 {
		o.NodeSize = 1024
	}
	if o.NodeSize < 256 || o.NodeSize%pmem.LineSize != 0 {
		return fmt.Errorf("wbtree: bad NodeSize %d", o.NodeSize)
	}
	if o.RootSlot < 0 || o.RootSlot > 3 {
		return fmt.Errorf("wbtree: RootSlot %d out of range", o.RootSlot)
	}
	return nil
}

// Tree is a single-writer wB+-tree over a pmem.Pool.
type Tree struct {
	pool     *pmem.Pool
	opts     Options
	nodeSize int64
	cap      int
	log      pmem.ImageLog // split redo log
}

// New creates an empty tree.
func New(p *pmem.Pool, th *pmem.Thread, opts Options) (*Tree, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	t := handle(p, opts)
	root, err := t.allocNode(th, 0)
	if err != nil {
		return nil, err
	}
	th.Flush(root, t.nodeSize)
	p.SetRoot(th, opts.RootSlot, root)
	if t.log, err = pmem.OpenImageLog(p, th, opts.RootSlot+4, t.nodeSize); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree and replays an unfinished split log.
func Open(p *pmem.Pool, th *pmem.Thread, opts Options) (*Tree, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	t := handle(p, opts)
	if p.Root(th, opts.RootSlot) == 0 {
		return nil, fmt.Errorf("wbtree: no tree at root slot %d", opts.RootSlot)
	}
	var err error
	if t.log, err = pmem.OpenImageLog(p, th, opts.RootSlot+4, t.nodeSize); err != nil {
		return nil, err
	}
	t.Recover(th)
	return t, nil
}

func handle(p *pmem.Pool, opts Options) *Tree {
	c := (opts.NodeSize - offRecords) / 16
	if c > maxCap {
		c = maxCap
	}
	if c > 63 { // slot array byte capacity
		c = 63
	}
	return &Tree{pool: p, opts: opts, nodeSize: int64(opts.NodeSize), cap: c}
}

// Pool returns the backing pool.
func (t *Tree) Pool() *pmem.Pool { return t.pool }

func (t *Tree) allocNode(th *pmem.Thread, level int) (int64, error) {
	n, err := t.pool.Alloc(t.nodeSize, pmem.LineSize)
	if err != nil {
		return 0, err
	}
	th.Store(n+offBitmap, slotValidBit)
	th.Store(n+offMeta, uint64(level))
	return n, nil
}

// --- node accessors ------------------------------------------------------

func (t *Tree) bitmap(th *pmem.Thread, n int64) uint64 { return th.Load(n + offBitmap) }
func (t *Tree) level(th *pmem.Thread, n int64) int     { return int(th.Load(n + offMeta)) }
func (t *Tree) next(th *pmem.Thread, n int64) int64    { return int64(th.Load(n + offNext)) }

func recOff(n int64, i int) int64 { return n + offRecords + int64(i)*16 }

func (t *Tree) recKey(th *pmem.Thread, n int64, i int) uint64 { return th.Load(recOff(n, i)) }
func (t *Tree) recVal(th *pmem.Thread, n int64, i int) uint64 { return th.Load(recOff(n, i) + 8) }

// slotArr reads the slot array (count + sorted indices) as bytes packed into
// words. Index 0 is the count.
func (t *Tree) slotByte(th *pmem.Thread, n int64, i int) int {
	w := th.Load(n + offSlotArr + int64(i/8*8))
	return int(w >> uint(i%8*8) & 0xff)
}

// writeSlotArr writes count followed by idx into the slot array with plain
// stores and flushes the touched lines (one line for <= 63 entries when the
// array is 64-byte aligned, as it is here).
func (t *Tree) writeSlotArr(th *pmem.Thread, n int64, idx []int) {
	var words [8]uint64
	words[0] = uint64(len(idx))
	for i, r := range idx {
		b := i + 1
		words[b/8] |= uint64(r) << uint(b%8*8)
	}
	for w := 0; w < 8; w++ {
		th.Store(n+offSlotArr+int64(w)*8, words[w])
	}
	th.Flush(n+offSlotArr, 64)
}

// sortedIdx returns the record indices in key order. With a valid slot array
// it is a direct read; otherwise (crash leftover) it scans the bitmap and
// sorts — the recovery path the paper describes.
func (t *Tree) sortedIdx(th *pmem.Thread, n int64, buf []int) []int {
	bm := t.bitmap(th, n)
	buf = buf[:0]
	if bm&slotValidBit != 0 {
		cnt := t.slotByte(th, n, 0)
		for i := 1; i <= cnt; i++ {
			buf = append(buf, t.slotByte(th, n, i))
		}
		return buf
	}
	for i := 0; i < t.cap; i++ {
		if bm&(uint64(1)<<uint(i+1)) != 0 {
			buf = append(buf, i)
		}
	}
	// Insertion sort by key (cap <= 62).
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && t.recKey(th, n, buf[j]) < t.recKey(th, n, buf[j-1]); j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	return buf
}

// --- operations ----------------------------------------------------------

func (t *Tree) root(th *pmem.Thread) int64 { return t.pool.Root(th, t.opts.RootSlot) }

// descend returns the leaf covering key and the path of internal nodes.
func (t *Tree) descend(th *pmem.Thread, key uint64) (int64, []int64) {
	var path []int64
	n := t.root(th)
	var buf [maxCap]int
	for t.level(th, n) > 0 {
		path = append(path, n)
		idx := t.sortedIdx(th, n, buf[:0])
		child := int64(th.Load(n + offLeftmost))
		for _, r := range idx {
			if t.recKey(th, n, r) <= key {
				child = int64(t.recVal(th, n, r))
			} else {
				break
			}
		}
		n = child
	}
	return n, path
}

// Get returns the value stored under key. Leaves are probed through the
// slot array (binary search over sorted positions).
func (t *Tree) Get(th *pmem.Thread, key uint64) (uint64, bool) {
	n, _ := t.descend(th, key)
	var buf [maxCap]int
	idx := t.sortedIdx(th, n, buf[:0])
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.recKey(th, n, idx[mid]) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(idx) && t.recKey(th, n, idx[lo]) == key {
		return t.recVal(th, n, idx[lo]), true
	}
	return 0, false
}

// Insert stores val under key (upsert).
func (t *Tree) Insert(th *pmem.Thread, key, val uint64) error {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	n, path := t.descend(th, key)
	var buf [maxCap]int
	idx := t.sortedIdx(th, n, buf[:0])
	// Upsert: overwrite the record value in place (8-byte atomic).
	for _, r := range idx {
		if t.recKey(th, n, r) == key {
			th.BeginPhase(pmem.PhaseUpdate)
			th.Store(recOff(n, r)+8, val)
			th.Flush(recOff(n, r)+8, 8)
			return nil
		}
	}
	th.BeginPhase(pmem.PhaseUpdate)
	if len(idx) >= t.cap {
		var err error
		n, idx, err = t.splitLeaf(th, n, path, key, idx, buf[:0])
		if err != nil {
			return err
		}
	}
	t.insertIntoNode(th, n, key, val, idx)
	return nil
}

// insertIntoNode performs the 4-flush slot+bitmap insert protocol.
func (t *Tree) insertIntoNode(th *pmem.Thread, n int64, key, val uint64, idx []int) {
	bm := t.bitmap(th, n)
	// Find a free record index.
	free := -1
	for i := 0; i < t.cap; i++ {
		if bm&(uint64(1)<<uint(i+1)) == 0 {
			free = i
			break
		}
	}
	// ① invalidate the slot array.
	th.Store(n+offBitmap, bm&^slotValidBit)
	th.Flush(n+offBitmap, 8)
	// ② write the record.
	th.Store(recOff(n, free), key)
	th.Store(recOff(n, free)+8, val)
	th.Flush(recOff(n, free), 16)
	// ③ rewrite the slot array with the new index in sorted position.
	pos := 0
	for pos < len(idx) && t.recKey(th, n, idx[pos]) < key {
		pos++
	}
	idx = append(idx, 0)
	copy(idx[pos+1:], idx[pos:])
	idx[pos] = free
	t.writeSlotArr(th, n, idx)
	// ④ atomic commit: record bit + slot-valid bit in one store.
	th.Store(n+offBitmap, bm|uint64(1)<<uint(free+1)|slotValidBit)
	th.Flush(n+offBitmap, 8)
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(th *pmem.Thread, key uint64) bool {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	n, _ := t.descend(th, key)
	var buf [maxCap]int
	idx := t.sortedIdx(th, n, buf[:0])
	pos := -1
	for i, r := range idx {
		if t.recKey(th, n, r) == key {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	th.BeginPhase(pmem.PhaseUpdate)
	bm := t.bitmap(th, n)
	r := idx[pos]
	// ① invalidate slot array, ② rewrite it without the record,
	// ③ atomic commit clearing the record bit.
	th.Store(n+offBitmap, bm&^slotValidBit)
	th.Flush(n+offBitmap, 8)
	idx = append(idx[:pos], idx[pos+1:]...)
	t.writeSlotArr(th, n, idx)
	th.Store(n+offBitmap, (bm|slotValidBit)&^(uint64(1)<<uint(r+1)))
	th.Flush(n+offBitmap, 8)
	return true
}

// Scan visits pairs with lo <= key <= hi ascending via the leaf chain.
func (t *Tree) Scan(th *pmem.Thread, lo, hi uint64, fn func(key, val uint64) bool) {
	n, _ := t.descend(th, lo)
	var buf [maxCap]int
	for n != 0 {
		idx := t.sortedIdx(th, n, buf[:0])
		for _, r := range idx {
			k := t.recKey(th, n, r)
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, t.recVal(th, n, r)) {
				return
			}
		}
		n = t.next(th, n)
	}
}

// Len counts keys (test helper).
func (t *Tree) Len(th *pmem.Thread) int {
	c := 0
	t.Scan(th, 0, ^uint64(0), func(uint64, uint64) bool { c++; return true })
	return c
}

// --- splits (redo-logged) --------------------------------------------------

// splitLeaf splits full node n (with sorted indices idx), updates the parent
// path, and returns the node that should receive key. The pre-split image of
// n is redo-logged; the sibling is fresh memory needing no log.
func (t *Tree) splitLeaf(th *pmem.Thread, n int64, path []int64, key uint64, idx []int, buf []int) (int64, []int, error) {
	level := t.level(th, n)
	half := len(idx) / 2
	sepKey := t.recKey(th, n, idx[half])

	sib, err := t.allocNode(th, level)
	if err != nil {
		return 0, nil, err
	}
	// Sibling gets the upper half, compacted.
	var sIdx []int
	movedFrom := idx[half:]
	if level > 0 {
		// Internal: median key moves up; its child becomes sibling's
		// leftmost.
		th.Store(sib+offLeftmost, t.recVal(th, n, idx[half]))
		movedFrom = idx[half+1:]
	}
	for i, r := range movedFrom {
		th.Store(recOff(sib, i), t.recKey(th, n, r))
		th.Store(recOff(sib, i)+8, t.recVal(th, n, r))
		sIdx = append(sIdx, i)
	}
	var sBm uint64 = slotValidBit
	for i := range sIdx {
		sBm |= uint64(1) << uint(i+1)
	}
	t.writeSlotArr(th, sib, sIdx)
	th.Store(sib+offBitmap, sBm)
	th.Store(sib+offNext, uint64(t.next(th, n)))
	th.Flush(sib, t.nodeSize)

	// Install the separator in the parent first (may split recursively;
	// each parent insert is itself crash-atomic). Until n is rewritten
	// the upper half exists in both nodes, which reads resolve
	// consistently: the parent routes >= sepKey to the sibling's copies,
	// and the leaf chain still bypasses the sibling.
	if err := t.insertSeparator(th, path, sepKey, sib); err != nil {
		return 0, nil, err
	}

	// Rewrite n under log protection: drop the moved records, link the
	// sibling into the leaf chain.
	t.truncate(th, n, idx[:half], sib)
	if key < sepKey {
		return n, t.sortedIdx(th, n, buf), nil
	}
	return sib, t.sortedIdx(th, sib, buf), nil
}

// truncate rewrites node n under the split log to hold only the records
// keep, linked to next.
func (t *Tree) truncate(th *pmem.Thread, n int64, keep []int, next int64) {
	t.log.Save(th, n)
	var bm uint64 = slotValidBit
	for _, r := range keep {
		bm |= uint64(1) << uint(r+1)
	}
	t.writeSlotArr(th, n, keep)
	th.Store(n+offBitmap, bm)
	th.Store(n+offNext, uint64(next))
	th.Flush(n+offBitmap, 8)
	th.Flush(n+offNext, 8)
	t.log.Clear(th)
}

func (t *Tree) insertSeparator(th *pmem.Thread, path []int64, sepKey uint64, sib int64) error {
	if len(path) == 0 {
		// Split the root: grow a level.
		oldRoot := t.root(th)
		nr, err := t.allocNode(th, t.level(th, oldRoot)+1)
		if err != nil {
			return err
		}
		th.Store(nr+offLeftmost, uint64(oldRoot))
		th.Store(recOff(nr, 0), sepKey)
		th.Store(recOff(nr, 0)+8, uint64(sib))
		t.writeSlotArr(th, nr, []int{0})
		th.Store(nr+offBitmap, slotValidBit|1<<1)
		th.Flush(nr, t.nodeSize)
		t.pool.SetRoot(th, t.opts.RootSlot, nr)
		return nil
	}
	p := path[len(path)-1]
	var buf [maxCap]int
	idx := t.sortedIdx(th, p, buf[:0])
	if len(idx) >= t.cap {
		var err error
		p, idx, err = t.splitLeaf(th, p, path[:len(path)-1], sepKey, idx, buf[:0])
		if err != nil {
			return err
		}
	}
	t.insertIntoNode(th, p, sepKey, uint64(sib), idx)
	return nil
}

// Recover replays an unfinished logged split and revalidates slot arrays.
func (t *Tree) Recover(th *pmem.Thread) {
	t.log.Restore(th)
	// Rebuild any slot array left invalid by a crashed insert/delete.
	t.eachNode(th, func(n int64) {
		if t.bitmap(th, n)&slotValidBit != 0 {
			return
		}
		var buf [maxCap]int
		idx := t.sortedIdx(th, n, buf[:0]) // bitmap-order rebuild
		t.writeSlotArr(th, n, idx)
		th.Store(n+offBitmap, t.bitmap(th, n)|slotValidBit)
		th.Flush(n+offBitmap, 8)
	})
	// Complete interrupted splits: a crash between the parent-separator
	// commit and the old node's rewrite leaves the upper half in both the
	// node and its new sibling. Truncate each leaf at the next leaf's
	// routing separator and relink the chain.
	leaves, lows := t.leavesInRoutingOrder(th)
	for i, n := range leaves {
		if i+1 >= len(leaves) {
			break
		}
		fence := lows[i+1]
		var buf [maxCap]int
		idx := t.sortedIdx(th, n, buf[:0])
		keep := idx[:0]
		for _, r := range idx {
			if t.recKey(th, n, r) < fence {
				keep = append(keep, r)
			}
		}
		if len(keep) == len(idx) && t.next(th, n) == leaves[i+1] {
			continue
		}
		t.truncate(th, n, keep, leaves[i+1])
	}
}

// leavesInRoutingOrder returns the leaves as the internal levels route them,
// with each leaf's low separator key.
func (t *Tree) leavesInRoutingOrder(th *pmem.Thread) ([]int64, []uint64) {
	var leaves []int64
	var lows []uint64
	var walk func(n int64, low uint64)
	walk = func(n int64, low uint64) {
		if t.level(th, n) == 0 {
			leaves = append(leaves, n)
			lows = append(lows, low)
			return
		}
		walk(int64(th.Load(n+offLeftmost)), low)
		var buf [maxCap]int
		for _, r := range t.sortedIdx(th, n, buf[:0]) {
			walk(int64(t.recVal(th, n, r)), t.recKey(th, n, r))
		}
	}
	walk(t.root(th), 0)
	return leaves, lows
}

func (t *Tree) eachNode(th *pmem.Thread, fn func(n int64)) {
	var walk func(n int64)
	walk = func(n int64) {
		fn(n)
		if t.level(th, n) == 0 {
			return
		}
		walk(int64(th.Load(n + offLeftmost)))
		var buf [maxCap]int
		for _, r := range t.sortedIdx(th, n, buf[:0]) {
			walk(int64(t.recVal(th, n, r)))
		}
	}
	walk(t.root(th))
}

// CheckInvariants verifies sorted slot arrays, bitmap/slot agreement, and
// global leaf-chain order.
func (t *Tree) CheckInvariants(th *pmem.Thread) error {
	errOut := ""
	t.eachNode(th, func(n int64) {
		var buf [maxCap]int
		idx := t.sortedIdx(th, n, buf[:0])
		bm := t.bitmap(th, n)
		seen := map[int]bool{}
		for i, r := range idx {
			if r < 0 || r >= t.cap || seen[r] {
				errOut = fmt.Sprintf("node %d: bad slot entry %d", n, r)
				return
			}
			seen[r] = true
			if bm&slotValidBit != 0 && bm&(uint64(1)<<uint(r+1)) == 0 {
				errOut = fmt.Sprintf("node %d: slot %d not set in bitmap", n, r)
				return
			}
			if i > 0 && t.recKey(th, n, r) <= t.recKey(th, n, idx[i-1]) {
				errOut = fmt.Sprintf("node %d: slot array unsorted at %d", n, i)
				return
			}
		}
	})
	if errOut != "" {
		return fmt.Errorf("wbtree: %s", errOut)
	}
	var prev uint64
	first := true
	bad := ""
	t.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
		if !first && k <= prev {
			bad = fmt.Sprintf("leaf chain unsorted: %d after %d", k, prev)
			return false
		}
		prev, first = k, false
		return true
	})
	if bad != "" {
		return fmt.Errorf("wbtree: %s", bad)
	}
	return nil
}
