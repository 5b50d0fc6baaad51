package core

import (
	"fmt"

	"repro/internal/pmem"
)

// Insert stores val under key, replacing any existing value (an existing
// key's value box is updated in place with one atomic store + flush, which
// is failure-atomic by itself).
func (t *BTree) Insert(th *pmem.Thread, key, val uint64) error {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()

	n := t.latchLeaf(th, key)

	if t.opts.InlineValues && val == 0 {
		t.unlockNode(th, n)
		return fmt.Errorf("%w: InlineValues forbids zero values", ErrBadOptions)
	}
	if pos := t.findPosLocked(th, n, key); pos >= 0 {
		th.BeginPhase(pmem.PhaseUpdate)
		if t.opts.InlineValues {
			// The record pointer is the value: one atomic store
			// replaces it (uniqueness keeps neighbours valid).
			t.storePtr(th, n, pos, val)
			th.Flush(t.slotOff(n, pos)+8, 8)
		} else {
			box := int64(t.ptrAt(th, n, pos))
			th.Store(box, val)
			th.Flush(box, 8)
		}
		t.unlockNode(th, n)
		return nil
	}

	box := val
	if !t.opts.InlineValues {
		var err error
		box, err = t.newBox(th, val)
		if err != nil {
			t.unlockNode(th, n)
			return err
		}
	}
	th.BeginPhase(pmem.PhaseUpdate)
	return t.insertIntoNode(th, n, 0, key, box)
}

// newBox allocates and persists a value cell. The box is persistent before
// any tree entry can point at it, so a crash can orphan a box but never
// expose an unwritten one.
func (t *BTree) newBox(th *pmem.Thread, val uint64) (uint64, error) {
	off, err := t.pool.Alloc(8, 8)
	if err != nil {
		return 0, err
	}
	th.Store(off, val)
	th.Persist(off, 8)
	return uint64(off), nil
}

// latchLeaf is the writer prologue: descend to key's leaf and return it
// latched, repaired and covering key.
func (t *BTree) latchLeaf(th *pmem.Thread, key uint64) node {
	return t.latchAt(th, t.descendToLeaf(th, key), key)
}

// latchAt latches n and re-checks, under the latch, whether key now belongs
// to a right sibling (Algorithm 1 lines 2–8), handing the latch rightward
// until it holds the covering node. On a suspect tree every node is repaired
// before its high key is trusted: a crashed split can leave it linked with
// the high key still the old, larger one, and testing first would keep the
// latch here, redo the truncation, and then put a key of the upper half into
// the node that has just given that half up.
func (t *BTree) latchAt(th *pmem.Thread, n node, key uint64) node {
	t.lockNode(th, n)
	for {
		t.fixNodeLocked(th, n)
		sib := t.rightOf(th, n, key)
		if !sib.valid() {
			return n
		}
		t.unlockNode(th, n)
		t.lockNode(th, sib)
		n = sib
	}
}

// findPosLocked returns the slot of key in the latched node, or -1. Under
// the latch (and after fixNodeLocked) every entry before the terminator is
// valid, so a plain line-granular scan suffices — no brackets needed.
func (t *BTree) findPosLocked(th *pmem.Thread, n node, key uint64) int {
	var ln [pmem.WordsPerLine]uint64
	for base := 0; base < t.slots; base += slotsPerLine {
		th.LoadLine(t.slotOff(n, base), &ln)
		for j := 0; j < slotsPerLine; j++ {
			if ln[2*j+1] == 0 {
				return -1
			}
			if ln[2*j] == key {
				return base + j
			}
		}
	}
	return -1
}

// insertIntoNode inserts (key, ptr) into latched node n at the given level,
// splitting when full. It releases the latch.
func (t *BTree) insertIntoNode(th *pmem.Thread, n node, level int, key, ptr uint64) error {
	cnt := t.count(th, n)
	if cnt < t.maxEntries {
		t.fastInsert(th, n, key, ptr, cnt)
		t.unlockNode(th, n)
		return nil
	}
	if t.opts.LoggedSplit {
		return t.splitLogged(th, n, level, key, ptr)
	}
	return t.split(th, n, level, key, ptr)
}

func lineOf(off int64) int64 { return off / pmem.LineSize }

// fastInsert is Failure-Atomic ShifT (Algorithm 1): shift the entries that
// follow key one slot right — per slot, pointer first, then key — flushing
// each cache line before touching the next, then write the new entry as
// (left-duplicate pointer, key, pointer), where the final pointer store is
// the atomic commit.
//
// Every intermediate 8-byte store leaves the node readable: the duplicated
// pointers make exactly one copy of each shifted key valid, and the new key
// stays invalid (its pointer equals its left neighbour's) until the commit
// store.
func (t *BTree) fastInsert(th *pmem.Thread, n node, key, ptr uint64, cnt int) {
	// Flip the node to insert direction so lock-free readers scan
	// left-to-right (a right-shift can double-deliver but never hide an
	// entry from a left-to-right scan).
	if sw := t.switchCtr(th, n); sw%2 == 1 {
		th.Store(n.off+offSwitch, sw+1)
	}

	// Zero-beyond invariant: before slot cnt can become non-zero the slot
	// after it must hold a zero pointer, or a reader running past the old
	// terminator would walk into stale pre-split entries. The stale slot
	// is consumed one insert at a time after a split truncation.
	if cnt+1 < t.slots && t.ptrAt(th, n, cnt+1) != 0 {
		t.storePtr(th, n, cnt+1, 0)
		th.Flush(t.slotOff(n, cnt+1)+8, 8)
	}

	i := cnt - 1
	for ; i >= 0; i-- {
		k := t.keyAt(th, n, i)
		if k <= key {
			break
		}
		t.storePtr(th, n, i+1, t.ptrAt(th, n, i))
		th.StoreFence()
		t.storeKey(th, n, i+1, k)
		th.StoreFence()
		// Moving to a lower cache line: flush the finished one.
		if lineOf(t.slotOff(n, i+1)) != lineOf(t.slotOff(n, i)) {
			th.Flush(t.slotOff(n, i+1), recordBytes)
		}
	}
	pos := i + 1
	t.storePtr(th, n, pos, t.leftPtrOf(th, n, pos))
	th.StoreFence()
	t.storeKey(th, n, pos, key)
	th.StoreFence()
	t.storePtr(th, n, pos, ptr) // commit
	th.Flush(t.slotOff(n, pos), recordBytes)
	t.setLastIdxHint(th, n, cnt+1)
}

// split is Failure-Atomic In-place Rebalance (Algorithm 2): build the new
// sibling, persist it, link it (making the pair a "virtual single node"),
// truncate the overfull node with a single pointer store, insert the pending
// entry, and finally — after releasing the latch — insert the separator into
// the parent. A crash at any step leaves a tree readers handle: before the
// link the sibling is invisible; after the link the two nodes overlap but
// duplicate entries resolve to the same value boxes; after the truncation
// the separator may be missing from the parent, which the sibling chase
// hides and Recover repairs.
func (t *BTree) split(th *pmem.Thread, n node, level int, key, ptr uint64) error {
	sepKey, sib, err := t.splitBody(th, n, level)
	if err != nil {
		return err
	}
	if err := t.insertPending(th, n, sib, level, sepKey, key, ptr); err != nil {
		return err
	}
	return t.insertParent(th, n, level, sepKey, uint64(sib.off))
}

// insertPending installs the entry whose insertion triggered the split. It
// re-enters through the normal latched path: the moment splitBody stored the
// sibling link, concurrent writers' lock-free descents could reach either
// half, so the pending insert must re-latch, apply lazy fixes, re-check
// move-right, and recount — it may even split again if a racer filled the
// target.
func (t *BTree) insertPending(th *pmem.Thread, n, sib node, level int, sepKey, key, ptr uint64) error {
	target := n
	if key >= sepKey {
		target = sib
	}
	return t.insertIntoNode(th, t.latchAt(th, target, key), level, key, ptr)
}

// splitLinked, when a test sets it, runs on the splitting thread between a
// split's link (sibling pointer and high key, both flushed) and its
// truncation — the window in which the upper half is live in the sibling
// while the still-latched node names it too.
var splitLinked func(t *BTree, level int)

// splitBody performs the node-local part of FAIR on latched node n and
// releases the latch; the caller inserts the pending entry and installs the
// separator in the parent.
func (t *BTree) splitBody(th *pmem.Thread, n node, level int) (uint64, node, error) {
	cnt := t.maxEntries
	median := cnt / 2
	medKey := t.keyAt(th, n, median)

	var sib node
	var err error
	var scnt int
	if level == 0 {
		sib, err = t.allocNode(th, 0, 0, medKey)
		if err != nil {
			t.unlockNode(th, n)
			return 0, node{}, err
		}
		for i := median; i < cnt; i++ {
			t.storeKey(th, sib, scnt, t.keyAt(th, n, i))
			t.storePtr(th, sib, scnt, t.ptrAt(th, n, i))
			scnt++
		}
	} else {
		// The median entry's child becomes the sibling's leftmost and
		// its key the separator; it lives on in neither entry list.
		sib, err = t.allocNode(th, level, t.ptrAt(th, n, median), medKey)
		if err != nil {
			t.unlockNode(th, n)
			return 0, node{}, err
		}
		for i := median + 1; i < cnt; i++ {
			t.storeKey(th, sib, scnt, t.keyAt(th, n, i))
			t.storePtr(th, sib, scnt, t.ptrAt(th, n, i))
			scnt++
		}
	}
	th.Store(sib.off+offSibling, uint64(t.sibling(th, n).off))
	th.Store(sib.off+offHighKey, t.highKey(th, n))
	t.setLastIdxHint(th, sib, scnt)
	th.Persist(sib.off, int64(t.nodeSize))

	// Link, then lower the high key, one flush for both header words: no
	// reader and no crash image sees the lowered fence without the link.
	th.Store(n.off+offSibling, uint64(sib.off))
	th.StoreFence()
	th.Store(n.off+offHighKey, medKey)
	th.Flush(n.off, headerBytes)
	if splitLinked != nil {
		splitLinked(t, level)
	}

	t.storePtr(th, n, median, 0) // truncate: single atomic store
	th.Flush(t.slotOff(n, median)+8, 8)
	t.setLastIdxHint(th, n, median)
	t.unlockNode(th, n)

	return medKey, sib, nil
}

// insertParent installs (sepKey → sib) one level up, growing a new root when
// child was the root. It holds no latches while descending and at most one
// while inserting, so the single-latch discipline (and thus deadlock
// freedom) is preserved.
func (t *BTree) insertParent(th *pmem.Thread, child node, level int, sepKey uint64, sibPtr uint64) error {
	for {
		root := t.root(th)
		if root.off == child.off {
			t.rootMu.Lock()
			if t.root(th).off != child.off {
				t.rootMu.Unlock()
				continue
			}
			nr, err := t.allocNode(th, level+1, uint64(child.off), t.lowKey(th, child))
			if err != nil {
				t.rootMu.Unlock()
				return err
			}
			t.storeKey(th, nr, 0, sepKey)
			t.storePtr(th, nr, 0, sibPtr)
			t.setLastIdxHint(th, nr, 1)
			th.Persist(nr.off, int64(t.nodeSize))
			t.pool.SetRoot(th, t.opts.RootSlot, nr.off)
			t.rootMu.Unlock()
			return nil
		}
		if t.level(th, root) <= level {
			// A root grow for our level is in flight elsewhere.
			pause(1)
			continue
		}

		p := root
		for t.level(th, p) > level+1 {
			if sib := t.rightOf(th, p, sepKey); sib.valid() {
				p = sib
				continue
			}
			p = node{int64(t.routeChild(th, p, sepKey))}
		}
		p = t.latchAt(th, p, sepKey)
		if t.hasChildLocked(th, p, sibPtr) {
			// Another writer (or recovery) beat us to it — the
			// paper's "only one of them will succeed".
			t.unlockNode(th, p)
			return nil
		}
		return t.insertIntoNode(th, p, level+1, sepKey, sibPtr)
	}
}

// hasChildLocked reports whether latched internal node p already references
// child (as leftmost or an entry pointer).
func (t *BTree) hasChildLocked(th *pmem.Thread, p node, child uint64) bool {
	if t.leftmost(th, p) == child {
		return true
	}
	for i := 0; i < t.slots; i++ {
		ptr := t.ptrAt(th, p, i)
		if ptr == 0 {
			return false
		}
		if ptr == child {
			return true
		}
	}
	return false
}
