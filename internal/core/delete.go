package core

import (
	"repro/internal/pmem"
)

// Delete removes key, reporting whether it was present.
//
// On a boxed tree — everything the store runs — a delete is its commit
// store and nothing else: Remove overwrites the slot's pointer with the
// leaf's odd sentinel, a tombstone (node.go), and flushes that one line. No
// reader was ever going to trust the slot again, so nothing is shifted, the
// switch counter stays where it is and the terminator is not visited; the
// inconsistency simply endures until the next insert into the leaf wants the
// slot (insert.go) or Vacuum compacts it. An 8-byte store is failure-atomic
// and tells apart from every other state of the slot on its own: the key is
// present with its value or gone, in every crash image and to every reader.
// Delete never reads the box it discards, so it costs one read less than
// Remove; the store reads the displaced word (Remove) only while the shard's
// tree may name a value-log record.
//
// FAST's eager delete below — invalidate the entry by duplicating its left
// neighbour's pointer over its own (the atomic commit), shift the tail of
// the array left one slot, key before pointer, with cache lines flushed in
// shift order, and zero the old last slot's pointer to restore the
// terminator — remains what deletes an entry where no tombstone can stand:
// in the leaves of an InlineValues tree (every word is a legal value there),
// in an internal node (Vacuum's removal of a separator), and as the second
// half of it, completeShiftLocked, wherever a slot has to go for good: crash
// repair of a duplicate pair and Vacuum's compaction of tombstones.
//
// Emptied leaves stay in place: they keep routing their key range (searches
// find nothing and correctly chase the sibling only when the sibling's low
// fence allows), and Vacuum reclaims them offline.
//
// The value box is recycled, but not at once. A lock-free reader can read
// the box pointer out of the leaf just before the commit store and load the
// box just after, so Remove retires the box (pmem.Pool.Retire) — after the
// commit's flush, so the delete is durable before the cell can take another
// key's value, and after the unlatch. Readers run that window
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
	_, existed := t.RemoveFrom(th, Leaf{}, key, false)
	return existed
}

// fastDelete removes the entry at pos from the latched node of cnt entries
// by FAST's left shift.
func (t *BTree) fastDelete(th *pmem.Thread, n node, pos, cnt int) {
	// Commit: duplicating the left pointer atomically invalidates the key.
	// No flush of its own: every store that follows goes to this same line
	// until the shift flushes it on the way out (or the terminator's flush
	// does, when the shift ends inside it), so the line persists as a
	// program-order prefix that begins with the commit — the fence gives
	// NonTSO the same — and the delete is durable at its last flush either
	// way.
	t.storePtr(th, n, pos, t.leftPtrOf(th, n, pos))
	th.StoreFence()
	t.completeShiftLocked(th, n, pos, cnt)
}

// completeShiftLocked compacts out the invalid slot at pos — a duplicate of
// its left neighbour's pointer, or a tombstone — by shifting [pos+1, cnt)
// one slot left and restoring the terminator. Lock-free readers scan
// right-to-left meanwhile: an entry moving left toward such a reader is seen
// twice at worst, never missed. It is shared by fastDelete, the recovery fix
// for crash-abandoned shifts and Vacuum.
func (t *BTree) completeShiftLocked(th *pmem.Thread, n node, pos, cnt int) {
	t.setDirection(th, n, 1)
	t.shiftLeft(th, n, pos, cnt-1)
	t.storePtr(th, n, cnt-1, 0)
	th.Flush(t.slotOff(n, cnt-1)+8, 8)
	t.setLastIdxHint(th, n, cnt-1)
}

// shiftLeft moves the entries of slots (from, to] one slot left, key before
// pointer: each pointer store atomically hands validity from the right copy
// to the left one, starting with slot from, whose own pointer is invalid.
// Slot to ends as a duplicate of to-1. Each line is flushed as the shift
// leaves it; to's is the caller's.
func (t *BTree) shiftLeft(th *pmem.Thread, n node, from, to int) {
	for j := from; j < to; j++ {
		t.storeKey(th, n, j, t.keyAt(th, n, j+1))
		th.StoreFence()
		t.storePtr(th, n, j, t.ptrAt(th, n, j+1))
		th.StoreFence()
		// Moving to a higher cache line: flush the finished one.
		if lineOf(t.slotOff(n, j)) != lineOf(t.slotOff(n, j+1)) {
			th.Flush(t.slotOff(n, j), recordBytes)
		}
	}
}
