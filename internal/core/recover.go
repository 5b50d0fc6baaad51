package core

import (
	"fmt"

	"repro/internal/pmem"
)

// fixNodeLocked is the paper's lazy recovery (§4.2), run by every writer
// right after latching a node (latchAt): tolerable inconsistency left by a
// crash is repaired before the writer trusts the node's high key or makes
// new changes. Readers never repair — they only tolerate. Only a crash
// leaves anything to repair, so the pass runs only on a tree that was
// attached to an image and not yet swept by Recover (BTree.suspect).
func (t *BTree) fixNodeLocked(th *pmem.Thread, n node) {
	if t.suspect.Load() {
		t.repairNodeLocked(th, n)
	}
}

// repairNodeLocked is the repair body behind fixNodeLocked and Recover.
// Three kinds of leftovers can exist:
//
//  1. A high key that is not the sibling's low fence: the old, larger one
//     after a crash between a split's link and its high-key store or inside
//     Vacuum's unlink, zero or anything at all in an image written before
//     the word existed. It is rewritten from the sibling — the one place
//     outside CheckInvariants and root growth that reads a sibling's low
//     key — and persisted before the truncation below: lowered fence
//     first, entries gone second, the order splitBody keeps.
//  2. A truncation that did not persist after a crashed FAIR split: the
//     node still holds entries at or beyond its sibling's low fence. The
//     single-store truncation is simply redone.
//  3. A duplicate-pointer pair from a crashed FAST shift — to the
//     terminator or into a tombstone, it is the same pair: the garbage key
//     between the duplicates is deleted by completing the left shift.
//
// A tombstone (node.go) is none of these: it is a committed delete, and it
// stays. Two adjacent ones, or one in slot 0, hold equal adjacent pointers
// and go the way of case 3, which costs the leaf a reusable slot.
func (t *BTree) repairNodeLocked(th *pmem.Thread, n node) {
	sib := t.sibling(th, n)
	fence := noHighKey
	if sib.valid() {
		fence = t.lowKey(th, sib)
	}
	if t.highKey(th, n) != fence {
		th.Store(n.off+offHighKey, fence)
		th.Flush(n.off+offHighKey, 8)
	}
	if sib.valid() {
		for i := 0; i < t.slots; i++ {
			if t.ptrAt(th, n, i) == 0 {
				break
			}
			if k := t.keyAt(th, n, i); k >= fence {
				// Guard: a true split leftover survives in the
				// sibling — as an entry (leaf split, vacuum
				// copy) or as the separator that became the
				// sibling's low fence (internal split, where
				// the median's child became the sibling's
				// leftmost). Never truncate an entry that
				// exists nowhere else.
				if k != fence && !t.siblingHasKey(th, sib, k) {
					break
				}
				t.storePtr(th, n, i, 0)
				th.Flush(t.slotOff(n, i)+8, 8)
				break
			}
		}
	}

	for {
		cnt := 0
		for cnt < t.slots && t.ptrAt(th, n, cnt) != 0 {
			cnt++
		}
		t.setLastIdxHint(th, n, cnt)
		fixed := false
		for i := 0; i < cnt; i++ {
			if t.ptrAt(th, n, i) == t.leftPtrOf(th, n, i) {
				// Complete the abandoned shift.
				t.completeShiftLocked(th, n, i, cnt)
				fixed = true
				break
			}
		}
		if !fixed {
			return
		}
	}
}

// siblingHasKey reports whether key appears in sib's entries: the test that
// distinguishes a crashed-split leftover (safe to truncate — the sibling
// holds the surviving copy) from live data.
func (t *BTree) siblingHasKey(th *pmem.Thread, sib node, key uint64) bool {
	for i := 0; i < t.slots; i++ {
		if t.ptrAt(th, sib, i) == 0 {
			break
		}
		if t.keyAt(th, sib, i) == key {
			return true
		}
	}
	return false
}

// restoreSplitLog rolls back a logged split that did not complete. The
// restored image carries the node's latch word as it was when saved, held.
func (t *BTree) restoreSplitLog(th *pmem.Thread) {
	if n := t.splitLog.Restore(th); n != 0 {
		th.StoreVolatile(n+offLock, 0)
	}
}

// Recover eagerly repairs the whole tree after a crash: it clears latch
// words, applies the lazy fixes to every node, zeroes stale slots beyond
// each terminator, re-attaches dangling siblings to their parents, and
// completes crashed root splits. It must run with exclusive access to the
// pool (the post-crash, pre-restart situation).
//
// Recover is idempotent: running it on a consistent tree changes nothing,
// and running it twice equals running it once. A successful Recover also
// ends the lazy per-write repair pass (see fixNodeLocked).
func (t *BTree) Recover(th *pmem.Thread) error {
	if t.opts.LoggedSplit {
		t.restoreSplitLog(th)
	}

	// Complete a crashed root split first: the root must not have a
	// sibling. insertParent grows a root over it and its first sibling;
	// the dangling-sibling pass below attaches the rest of the chain.
	if root := t.root(th); t.sibling(th, root).valid() {
		sib := t.sibling(th, root)
		if err := t.insertParent(th, root, t.level(th, root), t.lowKey(th, sib), uint64(sib.off)); err != nil {
			return err
		}
	}

	// Per-level sweep, top down.
	t.Nodes(th, func(off int64) {
		n := node{off}
		th.StoreVolatile(n.off+offLock, 0)
		t.repairNodeLocked(th, n)
		t.zeroBeyond(th, n)
	})
	levels := t.levelHeads(th)

	// Re-attach dangling siblings: every node in a level chain except the
	// head must be referenced by its parent level.
	for li := len(levels) - 2; li >= 0; li-- {
		refs := make(map[int64]bool)
		for p := levels[li+1]; p.valid(); p = t.sibling(th, p) {
			refs[int64(t.leftmost(th, p))] = true
			for i := 0; i < t.slots; i++ {
				ptr := t.ptrAt(th, p, i)
				if ptr == 0 {
					break
				}
				refs[int64(ptr)] = true
			}
		}
		for n := levels[li]; n.valid(); n = t.sibling(th, n) {
			if refs[n.off] {
				continue
			}
			if err := t.insertParent(th, n, li, t.lowKey(th, n), uint64(n.off)); err != nil {
				return err
			}
		}
	}
	// Every node has been repaired; from here on writers leave none behind.
	t.suspect.Store(false)
	return nil
}

// levelHeads returns the leftmost node of every level, index 0 = leaves.
func (t *BTree) levelHeads(th *pmem.Thread) []node {
	root := t.root(th)
	heads := make([]node, t.level(th, root)+1)
	n := root
	for {
		lv := t.level(th, n)
		heads[lv] = n
		if lv == 0 {
			return heads
		}
		n = node{int64(t.leftmost(th, n))}
	}
}

// Nodes calls fn with the arena offset of every node, top level first and
// left to right within a level. It follows leftmost children and sibling
// pointers only, so it also walks an image whose high keys are not to be
// trusted; like CheckInvariants it is a testing aid and needs a quiescent
// tree.
func (t *BTree) Nodes(th *pmem.Thread, fn func(off int64)) {
	levels := t.levelHeads(th)
	for li := len(levels) - 1; li >= 0; li-- {
		for n := levels[li]; n.valid(); n = t.sibling(th, n) {
			fn(n.off)
		}
	}
}

// zeroBeyond clears stale non-zero pointers past the terminator (possible
// only as crash debris; readers stop at the terminator so this is hygiene,
// not correctness).
func (t *BTree) zeroBeyond(th *pmem.Thread, n node) {
	cnt := 0
	for cnt < t.slots && t.ptrAt(th, n, cnt) != 0 {
		cnt++
	}
	for i := cnt + 1; i < t.slots; i++ {
		if t.ptrAt(th, n, i) != 0 {
			t.storePtr(th, n, i, 0)
			th.Flush(t.slotOff(n, i)+8, 8)
		}
	}
}

// Vacuum is offline maintenance (exclusive access required): it compacts
// the tombstones out of every leaf and merges each leaf into its left
// neighbour when their entries fit in one node, keeping space bounded under
// delete-heavy workloads. Every step is crash-safe — a tombstone goes by the
// left shift that removes a crashed shift's duplicate, entries are copied
// with FAST (duplicates across adjacent leaves resolve to the same value
// boxes), the parent separator is removed with FAST, and the unlink is a
// single pointer store.
func (t *BTree) Vacuum(th *pmem.Thread) error {
	heads := t.levelHeads(th)
	prev := heads[0]
	pc := t.compactLeaf(th, prev)
	if len(heads) < 2 {
		return nil // a lone root leaf cannot be merged
	}
	for {
		n := t.sibling(th, prev)
		if !n.valid() {
			return nil
		}
		nc := t.compactLeaf(th, n)
		parent, pos := t.findParentEntry(th, n)
		if pc+nc >= t.maxEntries || !parent.valid() {
			prev, pc = n, nc
			continue
		}
		// 1. Copy entries left (each FAST insert is failure-atomic).
		for i := 0; i < nc; i++ {
			t.fastInsert(th, prev, t.keyAt(th, n, i), t.ptrAt(th, n, i), pc+i)
		}
		pc += nc
		// 2. Remove the parent separator (FAST delete).
		t.fastDelete(th, parent, pos, t.count(th, parent))
		// 3. Unlink and reclaim: raise the high key to the absorbed
		// leaf's, then store the pointer (atomic), one flush. An image
		// with the raised fence and the old link keeps every key of
		// the absorbed range in prev, where step 1 copied it; the
		// reverse would send them past it.
		th.Store(prev.off+offHighKey, t.highKey(th, n))
		th.StoreFence()
		th.Store(prev.off+offSibling, uint64(t.sibling(th, n).off))
		th.Flush(prev.off, headerBytes)
		t.pool.Free(n.off, int64(t.nodeSize))
		// prev unchanged: it may absorb the next leaf too.
	}
}

// compactLeaf removes the leaf's tombstones, last first so that no entry
// moves twice past one, and returns the number of entries left. A crash
// inside leaves what any crashed left shift leaves.
func (t *BTree) compactLeaf(th *pmem.Thread, n node) int {
	cnt := t.count(th, n)
	for i := cnt - 1; i >= 0; i-- {
		if t.dead(t.ptrAt(th, n, i)) {
			t.completeShiftLocked(th, n, i, cnt)
			cnt--
		}
	}
	return cnt
}

// findParentEntry locates the internal level-1 node and slot whose pointer
// is leaf n. A leaf reachable only as a leftmost child returns an invalid
// node (Vacuum skips it).
func (t *BTree) findParentEntry(th *pmem.Thread, n node) (node, int) {
	key := t.lowKey(th, n)
	p := t.root(th)
	for t.level(th, p) > 1 {
		if sib := t.rightOf(th, p, key); sib.valid() {
			p = sib
			continue
		}
		p = node{int64(t.routeChild(th, p, key))}
	}
	for {
		for i := 0; i < t.slots; i++ {
			ptr := t.ptrAt(th, p, i)
			if ptr == 0 {
				break
			}
			if ptr == uint64(n.off) {
				return p, i
			}
		}
		sib := t.sibling(th, p)
		if !sib.valid() {
			return node{}, -1
		}
		p = sib
	}
}

// CheckInvariants validates the full structural contract of a quiescent
// tree; it is the oracle the crash-injection and property tests rely on.
func (t *BTree) CheckInvariants(th *pmem.Thread) error {
	root := t.root(th)
	if !root.valid() {
		return fmt.Errorf("%w: nil root", ErrCorrupt)
	}
	if t.sibling(th, root).valid() {
		return fmt.Errorf("%w: root %d has a sibling", ErrCorrupt, root.off)
	}
	_, err := t.checkNode(th, root, t.level(th, root), 0, 0)
	if err != nil {
		return err
	}
	// Leaf chain must be globally sorted. Tombstones' stale keys are only
	// weakly ordered (checkNode) and take no part.
	prevSet := false
	var prevKey uint64
	for n := t.levelHeads(th)[0]; n.valid(); n = t.sibling(th, n) {
		cnt := t.count(th, n)
		for i := 0; i < cnt; i++ {
			if t.dead(t.ptrAt(th, n, i)) {
				continue
			}
			k := t.keyAt(th, n, i)
			if prevSet && k <= prevKey {
				return fmt.Errorf("%w: leaf chain unsorted at key %d (node %d)", ErrCorrupt, k, n.off)
			}
			prevKey, prevSet = k, true
		}
	}
	return nil
}

// checkNode validates node n and its subtree; returns the node's maximum key
// bound for sibling cross-checks.
func (t *BTree) checkNode(th *pmem.Thread, n node, wantLevel int, lowBound uint64, depth int) (uint64, error) {
	if depth > 64 {
		return 0, fmt.Errorf("%w: depth runaway at node %d", ErrCorrupt, n.off)
	}
	if got := t.level(th, n); got != wantLevel {
		return 0, fmt.Errorf("%w: node %d level %d, want %d", ErrCorrupt, n.off, got, wantLevel)
	}
	low := t.lowKey(th, n)
	if low < lowBound {
		return 0, fmt.Errorf("%w: node %d lowKey %d below bound %d", ErrCorrupt, n.off, low, lowBound)
	}
	cnt := t.count(th, n)
	// Terminator must exist; slots beyond it may legitimately hold stale
	// pre-split entries, which readers never visit and inserts consume.
	if cnt < t.slots && t.ptrAt(th, n, cnt) != 0 {
		return 0, fmt.Errorf("%w: node %d missing terminator at slot %d", ErrCorrupt, n.off, cnt)
	}
	var hi uint64
	if wantLevel == 0 {
		if t.leftmost(th, n) != leafSentinel(n.off) {
			return 0, fmt.Errorf("%w: leaf %d bad sentinel", ErrCorrupt, n.off)
		}
	} else if t.leftmost(th, n) == 0 {
		return 0, fmt.Errorf("%w: internal %d nil leftmost", ErrCorrupt, n.off)
	}
	// A leaf's tombstones (node.go): the pointer is the leaf's own sentinel
	// — equal adjacent ones are two tombstones, not a duplicate — and the
	// stale key is ordered weakly, where live keys are ordered strictly.
	prev := t.leftmost(th, n)
	var lastLive uint64
	liveSeen := false
	for i := 0; i < cnt; i++ {
		k, p := t.keyAt(th, n, i), t.ptrAt(th, n, i)
		tomb := wantLevel == 0 && t.dead(p)
		if tomb && p != leafSentinel(n.off) {
			return 0, fmt.Errorf("%w: leaf %d odd pointer %#x at slot %d is not its sentinel", ErrCorrupt, n.off, p, i)
		}
		if !tomb && p == prev {
			return 0, fmt.Errorf("%w: node %d duplicate pointer at slot %d", ErrCorrupt, n.off, i)
		}
		if k < low {
			return 0, fmt.Errorf("%w: node %d key %d below lowKey %d", ErrCorrupt, n.off, k, low)
		}
		if i > 0 && k < hi || !tomb && liveSeen && k <= lastLive {
			return 0, fmt.Errorf("%w: node %d keys unsorted at slot %d", ErrCorrupt, n.off, i)
		}
		if !tomb {
			lastLive, liveSeen = k, true
		}
		prev = p
		hi = k
	}
	fence := noHighKey
	if sib := t.sibling(th, n); sib.valid() {
		fence = t.lowKey(th, sib)
		if cnt > 0 && hi >= fence {
			return 0, fmt.Errorf("%w: node %d max key %d crosses sibling fence %d", ErrCorrupt, n.off, hi, fence)
		}
		if t.level(th, sib) != wantLevel {
			return 0, fmt.Errorf("%w: node %d sibling level mismatch", ErrCorrupt, n.off)
		}
	}
	if got := t.highKey(th, n); got != fence {
		return 0, fmt.Errorf("%w: node %d high key %d, want %d (sibling's low fence, or ^0 without one)", ErrCorrupt, n.off, got, fence)
	}
	if wantLevel > 0 {
		// Children: leftmost covers [lowKey, firstEntryKey), entry i
		// covers [key_i, key_{i+1}).
		child := node{int64(t.leftmost(th, n))}
		if _, err := t.checkNode(th, child, wantLevel-1, low, depth+1); err != nil {
			return 0, err
		}
		if got := t.lowKey(th, child); got != low {
			return 0, fmt.Errorf("%w: node %d leftmost child lowKey %d != %d", ErrCorrupt, n.off, got, low)
		}
		for i := 0; i < cnt; i++ {
			k := t.keyAt(th, n, i)
			c := node{int64(t.ptrAt(th, n, i))}
			if _, err := t.checkNode(th, c, wantLevel-1, k, depth+1); err != nil {
				return 0, err
			}
			if got := t.lowKey(th, c); got != k {
				return 0, fmt.Errorf("%w: node %d child %d lowKey %d != separator %d", ErrCorrupt, n.off, c.off, got, k)
			}
		}
	}
	return hi, nil
}
