package core

import (
	"repro/internal/pmem"
)

// Delete removes key, reporting whether it was present.
//
// Deletion is the FAST left shift: the entry is first invalidated by
// duplicating its left neighbour's pointer over its own (the atomic commit),
// then the tail of the array shifts left one slot — key before pointer —
// with cache lines flushed in shift order, and finally the old last slot's
// pointer is zeroed, restoring the terminator.
//
// Emptied leaves stay in place: they keep routing their key range (searches
// find nothing and correctly chase the sibling only when the sibling's low
// fence allows), and Vacuum reclaims them offline.
//
// The value box is recycled, but not at once. A lock-free reader can read
// the box pointer out of the leaf just before the commit store and load the
// box just after, so Remove retires the box (pmem.Pool.Retire) — after the
// last flush of the shift, so the delete is durable before the cell can
// take another key's value, and after the unlatch. Readers run that window
// inside a grace section (Get, Scan), the box reaches the allocator's free
// list only when every section open at the Retire has closed, and the
// racing reader still observes the pre-delete value rather than a recycled
// cell. One more place can name the box: between a split's link and its
// truncation the left node still holds the upper half, so a delete through
// the sibling retires a box the left node has not let go of. Readers never
// take such an entry from the left node on the strength of a section opened
// after the Retire (the delete got to the sibling past the left node's
// lowered high key, which sends Get right in the descent and is what Scan
// filters by). Writers need no section: overwrite,
// ReplaceIf and Remove touch a box only under the latch of the leaf that
// names it, which the delete that retires it must also hold. The slots
// beyond a split's terminator can keep naming a box long after it is gone;
// nothing dereferences them (scanBound, fastInsert's zero-beyond rule).
func (t *BTree) Delete(th *pmem.Thread, key uint64) bool {
	_, existed := t.Remove(th, key)
	return existed
}

// fastDelete removes the entry at pos from the latched node of cnt entries.
func (t *BTree) fastDelete(th *pmem.Thread, n node, pos, cnt int) {
	// Flip to delete direction so lock-free readers scan right-to-left:
	// an entry moving left toward such a reader is seen twice at worst,
	// never missed.
	if sw := t.switchCtr(th, n); sw%2 == 0 {
		th.Store(n.off+offSwitch, sw+1)
	}

	// Commit: duplicating the left pointer atomically invalidates the key.
	// No flush of its own: every store that follows goes to this same line
	// until the shift flushes it on the way out (or the terminator's flush
	// does, when the shift ends inside it), so the line persists as a
	// program-order prefix that begins with the commit — the fence gives
	// NonTSO the same — and the delete is durable at its last flush either
	// way.
	t.storePtr(th, n, pos, t.leftPtrOf(th, n, pos))
	th.StoreFence()

	// Compact: shift the tail left, key before pointer; each pointer
	// store atomically hands validity from the right copy to the left.
	t.completeShiftLocked(th, n, pos, cnt)
}

// completeShiftLocked compacts out the invalid entry at pos (whose pointer
// equals its left neighbour's) by shifting [pos+1, cnt) one slot left and
// restoring the terminator. It is shared by fastDelete and the lazy-recovery
// fix for crash-abandoned shifts.
func (t *BTree) completeShiftLocked(th *pmem.Thread, n node, pos, cnt int) {
	for j := pos; j < cnt-1; j++ {
		t.storeKey(th, n, j, t.keyAt(th, n, j+1))
		th.StoreFence()
		t.storePtr(th, n, j, t.ptrAt(th, n, j+1))
		th.StoreFence()
		// Moving to a higher cache line: flush the finished one.
		if lineOf(t.slotOff(n, j)) != lineOf(t.slotOff(n, j+1)) {
			th.Flush(t.slotOff(n, j), recordBytes)
		}
	}
	t.storePtr(th, n, cnt-1, 0)
	th.Flush(t.slotOff(n, cnt-1)+8, 8)
	t.setLastIdxHint(th, n, cnt-1)
}
