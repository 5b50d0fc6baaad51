package core

import (
	"fmt"

	"repro/internal/pmem"
)

// An insert into a leaf is the value's new box and then one of three
// shapes, chosen by insertIntoLeaf from what one latched pass over the leaf
// (probeLeafLocked) found: the insertion point pos, the nearest tombstone on
// either side of it, and the terminator. The cheapest in flushed lines wins,
// a tombstone over the tail on a tie and the right one over the left. (With
// Options.InlineValues there is no box and never a tombstone: always the
// tail.)
//
//   - Right: a tombstone at h >= pos. FAST's right shift of [pos, h) that
//     starts at the hole instead of the terminator, even direction. Its
//     first store puts the left neighbour's pointer over the sentinel — the
//     slot goes from tombstone to duplicate, invalid either way — and from
//     there every store is one Algorithm 1 makes; a crash leaves a
//     duplicate pair, which repairNodeLocked compacts. With h == pos
//     nothing moves: the slot is reused in place, key store, fence, pointer
//     store, one flush. Until the pointer store the slot is a tombstone with
//     another stale key, which rule 1 of node.go allows because the new key
//     sorts between the same neighbours.
//   - Left: a tombstone at h < pos. FAST's left shift of (h, pos-1] into the
//     hole, odd direction: the first store copies the right neighbour's key
//     over the stale one (equal keys, rule 1), the second its pointer — the
//     hole turns valid and the neighbour a duplicate in one store — and so
//     on up to slot pos-1, which ends as a duplicate of pos-2 and takes the
//     new entry key first, pointer second. A crash leaves the stale-key
//     tombstone or a duplicate pair. With h == pos-1 it is the in-place
//     reuse again, even direction: a re-inserted key always finds its own
//     stale slot here.
//   - Tail: Algorithm 1 unchanged (fastInsert), taken when it is strictly
//     cheaper than either hole or the leaf has none.
//
// A hole shift never moves the terminator, so the zero-beyond rule below is
// the tail's business alone. A leaf splits when it has neither a tombstone
// nor a free slot — exactly when it did before tombstones existed.

// Insert stores val under key, replacing any existing value (an existing
// key's value box is updated in place with one atomic store + flush, which
// is failure-atomic by itself).
func (t *BTree) Insert(th *pmem.Thread, key, val uint64) error {
	_, _, err := t.UpsertFrom(th, Leaf{}, key, val, false)
	return err
}

// UpsertFrom is Insert and Exchange with the descent starting at leaf at
// (the zero Leaf: the root). existed reports whether key was present, and
// old the value it displaced only when wantOld asks for it: on a boxed tree
// that is a read of the box, which an overwrite otherwise only stores to.
func (t *BTree) UpsertFrom(th *pmem.Thread, at Leaf, key, val uint64, wantOld bool) (old uint64, existed bool, err error) {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()

	n := t.latchLeaf(th, at, key)

	if t.opts.InlineValues && val == 0 {
		th.Unlatch(n.off + offLock)
		return 0, false, fmt.Errorf("%w: InlineValues forbids zero values", ErrBadOptions)
	}
	pr := t.probeLeafLocked(th, n, key)
	if pr.at >= 0 {
		th.BeginPhase(pmem.PhaseUpdate)
		old = t.overwriteLocked(th, n, pr.at, val, wantOld)
		th.Unlatch(n.off + offLock)
		return old, true, nil
	}
	ptr := val
	if !t.opts.InlineValues {
		if ptr, err = t.newBox(th, val); err != nil {
			th.Unlatch(n.off + offLock)
			return 0, false, err
		}
	}
	th.BeginPhase(pmem.PhaseUpdate)
	return 0, false, t.insertIntoLeaf(th, n, key, ptr, pr)
}

// overwriteLocked replaces the value of the live entry in slot pos of the
// latched leaf with one atomic store and its flush, and returns the old one
// if asked to: on a boxed tree that is a read of the box, which is otherwise
// stored to, never loaded.
func (t *BTree) overwriteLocked(th *pmem.Thread, n node, pos int, val uint64, wantOld bool) (old uint64) {
	word := t.slotOff(n, pos) + 8
	if !t.opts.InlineValues {
		word = int64(th.Load(word)) // the box
	}
	// With InlineValues the record pointer is the value (uniqueness keeps
	// the neighbours valid).
	if wantOld || t.opts.InlineValues {
		old = th.Load(word)
	}
	th.Store(word, val)
	th.Flush(word, 8)
	return old
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
	th.Flush(off, 8)
	return uint64(off), nil
}

// latchLeaf is the writer prologue: descend to key's leaf — unless at is
// where a batched descent already brought it (Descend) — and return it
// latched, repaired and covering key.
func (t *BTree) latchLeaf(th *pmem.Thread, at Leaf, key uint64) node {
	if !at.n.valid() {
		at.n = t.descendToLeaf(th, key)
	}
	return t.latchAt(th, at.n, key)
}

// latchAt latches n and re-checks, under the latch, whether key now belongs
// to a right sibling (Algorithm 1 lines 2–8), handing the latch rightward
// until it holds the covering node. n may be a leaf an earlier lock-free
// descent reached: a split since only moved the upper part of its range
// right. On a suspect tree every node is repaired before its high key is
// trusted: a crashed split can leave it linked with
// the high key still the old, larger one, and testing first would keep the
// latch here, redo the truncation, and then put a key of the upper half into
// the node that has just given that half up.
func (t *BTree) latchAt(th *pmem.Thread, n node, key uint64) node {
	th.Latch(n.off + offLock)
	for {
		t.fixNodeLocked(th, n)
		sib := t.rightOf(th, n, key)
		if !sib.valid() {
			return n
		}
		th.Unlatch(n.off + offLock)
		th.Latch(sib.off + offLock)
		n = sib
	}
}

// leafProbe is what one latched pass over a leaf tells a writer of key: an
// insert reads every field, ReplaceIf and RemoveFrom only at. When the key
// is live (at >= 0) the pass stops there and the other fields are not set.
// With InlineValues there are no tombstones to find.
type leafProbe struct {
	at    int // slot holding key, or -1
	pos   int // insertion point: the slots before it hold the keys <= key
	cnt   int // slots in use, tombstones included: the terminator's index
	left  int // nearest tombstone below pos, or -1
	right int // nearest tombstone at or above pos, or -1
}

// probeLeafLocked walks the latched leaf's record lines once, up to the
// terminator. Stale keys are weakly ordered with the live ones (node.go,
// rule 1), so the keys <= key are a prefix of the slots in use.
func (t *BTree) probeLeafLocked(th *pmem.Thread, n node, key uint64) leafProbe {
	pr := leafProbe{at: -1, cnt: t.slots, left: -1, right: -1}
	var ln [pmem.WordsPerLine]uint64
scan:
	for base := 0; base < t.slots; base += slotsPerLine {
		th.LoadLine(t.slotOff(n, base), &ln)
		for j := 0; j < slotsPerLine; j++ {
			k, p := ln[2*j], ln[2*j+1]
			if p == 0 {
				pr.cnt = base + j
				break scan
			}
			switch tomb := t.dead(p); {
			case k > key:
				if tomb && pr.right < 0 {
					pr.right = base + j
				}
			case tomb:
				pr.left, pr.pos = base+j, base+j+1
			case k == key:
				pr.at = base + j
				return pr
			default:
				pr.pos = base + j + 1
			}
		}
	}
	return pr
}

// insertIntoLeaf inserts (key, ptr) into the latched leaf in the cheapest of
// the three shapes described at the top of this file, or splits. It
// releases the latch.
func (t *BTree) insertIntoLeaf(th *pmem.Thread, n node, key, ptr uint64, pr leafProbe) error {
	if pr.at >= 0 {
		// Only behind a split: the splitter let go of the latch (splitBody)
		// and a racing insert of the same key got in first. The key is
		// there, so this is an overwrite; a new box was never published.
		val := ptr
		if !t.opts.InlineValues {
			val = th.Load(int64(ptr))
		}
		t.overwriteLocked(th, n, pr.at, val, false)
		th.Unlatch(n.off + offLock)
		if !t.opts.InlineValues {
			t.pool.Free(int64(ptr), 8)
		}
		return nil
	}
	const never = 1 << 30
	lines := func(lo, hi int) int { return hi/slotsPerLine - lo/slotsPerLine + 1 }
	left, right, tail := never, never, never
	if pr.left >= 0 {
		left = lines(pr.left, pr.pos-1)
	}
	if pr.right >= 0 {
		right = lines(pr.pos, pr.right)
	}
	if pr.cnt < t.maxEntries {
		tail = lines(pr.pos, pr.cnt)
	}
	switch best := min(right, left, tail); {
	case best == never:
		return t.split(th, n, 0, key, ptr)
	case best == right:
		t.setDirection(th, n, 0)
		t.shiftIn(th, n, key, ptr, pr.right)
	case best == left:
		// Odd only if something moves left: reuse in place leaves the leaf
		// in insert direction, where lock-free scans take their fast path.
		parity := uint64(1)
		if pr.left == pr.pos-1 {
			parity = 0
		}
		t.setDirection(th, n, parity)
		t.shiftLeft(th, n, pr.left, pr.pos-1)
		t.commitSlot(th, n, pr.pos-1, key, ptr)
	default:
		t.fastInsert(th, n, key, ptr, pr.cnt)
	}
	th.Unlatch(n.off + offLock)
	return nil
}

// insertIntoNode inserts (key, ptr) into latched node n at the given level,
// splitting when full. It releases the latch.
func (t *BTree) insertIntoNode(th *pmem.Thread, n node, level int, key, ptr uint64) error {
	if level == 0 {
		return t.insertIntoLeaf(th, n, key, ptr, t.probeLeafLocked(th, n, key))
	}
	cnt := t.count(th, n)
	if cnt < t.maxEntries {
		t.fastInsert(th, n, key, ptr, cnt)
		th.Unlatch(n.off + offLock)
		return nil
	}
	return t.split(th, n, level, key, ptr)
}

func lineOf(off int64) int64 { return off / pmem.LineSize }

// setDirection gives the node's switch counter the parity a shift needs
// before its first store: 0 for a right shift, so lock-free readers scan
// left-to-right (a right shift can double-deliver but never hide an entry
// from such a scan), 1 for a left shift and right-to-left readers.
func (t *BTree) setDirection(th *pmem.Thread, n node, parity uint64) {
	if sw := t.switchCtr(th, n); sw%2 != parity {
		th.Store(n.off+offSwitch, sw+1)
	}
}

// fastInsert is Failure-Atomic ShifT (Algorithm 1): shift the entries that
// follow key one slot right — per slot, pointer first, then key — flushing
// each cache line before touching the next, then write the new entry into
// the slot that came free, where the final pointer store is the atomic
// commit. cnt is the terminator's index; the terminator moves one slot up.
//
// Every intermediate 8-byte store leaves the node readable: the duplicated
// pointers make exactly one copy of each shifted key valid, and the new key
// stays invalid (its pointer equals its left neighbour's) until the commit
// store.
func (t *BTree) fastInsert(th *pmem.Thread, n node, key, ptr uint64, cnt int) {
	t.setDirection(th, n, 0)

	// Zero-beyond invariant: before slot cnt can become non-zero the slot
	// after it must hold a zero pointer, or a reader running past the old
	// terminator would walk into stale pre-split entries. The stale slot
	// is consumed one insert at a time after a split truncation.
	if cnt+1 < t.slots && t.ptrAt(th, n, cnt+1) != 0 {
		t.storePtr(th, n, cnt+1, 0)
		th.Flush(t.slotOff(n, cnt+1)+8, 8)
	}
	t.shiftIn(th, n, key, ptr, cnt)
	t.setLastIdxHint(th, n, cnt+1)
}

// shiftIn is the shift and the commit of fastInsert. end is a slot whose
// pointer no reader trusts — the terminator, or a tombstone with every key
// from the insertion point up to it greater than key.
func (t *BTree) shiftIn(th *pmem.Thread, n node, key, ptr uint64, end int) {
	i := end - 1
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
	if pos != end {
		// The slot still holds the entry that now also sits one slot up:
		// the left neighbour's pointer invalidates this copy and hands
		// validity to that one. When nothing was shifted the slot is end
		// itself, invalid as it stands.
		t.storePtr(th, n, pos, t.leftPtrOf(th, n, pos))
		th.StoreFence()
	}
	t.commitSlot(th, n, pos, key, ptr)
}

// commitSlot writes (key, ptr) into slot pos, whose pointer is invalid where
// it stands — zero, a duplicate of its left neighbour's or a tombstone — and
// flushes the slot's line. The pointer store is the commit.
func (t *BTree) commitSlot(th *pmem.Thread, n node, pos int, key, ptr uint64) {
	t.storeKey(th, n, pos, key)
	th.StoreFence()
	t.storePtr(th, n, pos, ptr)
	th.Flush(t.slotOff(n, pos), recordBytes)
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
//
// Under Options.LoggedSplit (the FAST+Logging baseline) a redo log of n's
// pre-split image brackets the body.
func (t *BTree) split(th *pmem.Thread, n node, level int, key, ptr uint64) error {
	if t.opts.LoggedSplit {
		t.splitLog.Save(th, n.off)
	}
	sepKey, sib, err := t.splitBody(th, n, level)
	if t.opts.LoggedSplit {
		t.splitLog.Clear(th)
	}
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
			th.Unlatch(n.off + offLock)
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
			th.Unlatch(n.off + offLock)
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
	th.Flush(sib.off, int64(t.nodeSize))

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
	th.Unlatch(n.off + offLock)

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
			th.Flush(nr.off, int64(t.nodeSize))
			t.pool.SetRoot(th, t.opts.RootSlot, nr.off)
			t.rootMu.Unlock()
			return nil
		}
		if t.level(th, root) <= level {
			continue // a root grow for our level is in flight elsewhere
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
			th.Unlatch(p.off + offLock)
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
