package core

import (
	"repro/internal/pmem"
)

// The read-modify-write primitives behind the store's value-log garbage
// accounting and relocation. All three run under the same per-node writer
// latch as Insert, so they serialise with every other writer touching the
// key; readers stay lock-free and observe either the old or the new value
// word, both of which are committed states (an aligned 8-byte store is
// failure- and concurrency-atomic in the paper's hardware contract).

// Exchange stores val under key exactly like Insert, additionally returning
// the value the key held before (existed reports whether there was one), at
// the price of one more read on a boxed tree: the old box. The store reads
// the displaced word only while the shard's tree may name a value-log
// record, whose bytes the overwrite then retires; a shard that never held
// one writes through UpsertFrom without asking for it.
func (t *BTree) Exchange(th *pmem.Thread, key, val uint64) (old uint64, existed bool, err error) {
	return t.UpsertFrom(th, Leaf{}, key, val, true)
}

// ReplaceIf atomically replaces key's value old→new, refusing (and
// reporting false) when the key is absent or no longer holds old. It is
// the conditional swap value-log GC commits relocations with: a concurrent
// overwrite or delete between the GC's copy and its swap changes the value
// word, so the stale relocation is refused instead of clobbering fresher
// data. The compare and the store happen under the leaf latch, which every
// writer path (Insert, Exchange, Delete) also takes, so the
// compare-and-swap is atomic with respect to them.
//
// An ABA false-positive would need the value word to return to `old` while
// the relocation is in flight; for value-log refs that cannot happen, since
// a ref's offset can only be handed out again after its extent is freed,
// which the GC does strictly after this swap.
func (t *BTree) ReplaceIf(th *pmem.Thread, key, old, new uint64) bool {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()

	n := t.latchLeaf(th, Leaf{}, key)

	pos := t.probeLeafLocked(th, n, key).at
	if pos < 0 {
		th.Unlatch(n.off + offLock)
		return false
	}
	th.BeginPhase(pmem.PhaseUpdate)
	swapped := false
	if t.opts.InlineValues {
		// The record pointer is the value; zero would read as the array
		// terminator, so it can never be installed.
		if new != 0 && t.ptrAt(th, n, pos) == old {
			t.storePtr(th, n, pos, new)
			th.Flush(t.slotOff(n, pos)+8, 8)
			swapped = true
		}
	} else {
		box := int64(t.ptrAt(th, n, pos))
		if th.Load(box) == old {
			th.Store(box, new)
			th.Flush(box, 8)
			swapped = true
		}
	}
	th.Unlatch(n.off + offLock)
	return swapped
}

// Remove is Delete returning the value the key held, so the caller can
// retire a value-log record the displaced word names. On a boxed tree that
// costs one read more than Delete, the box the delete discards; the store
// pays it only while the shard's tree may name a value-log record (see
// Exchange).
func (t *BTree) Remove(th *pmem.Thread, key uint64) (old uint64, existed bool) {
	return t.RemoveFrom(th, Leaf{}, key, true)
}

// RemoveFrom is Delete and Remove with the descent starting at leaf at (the
// zero Leaf: the root): old is the value key held only when wantOld asks for
// it, which on a boxed tree is a read of the box.
func (t *BTree) RemoveFrom(th *pmem.Thread, at Leaf, key uint64, wantOld bool) (old uint64, existed bool) {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()

	n := t.latchLeaf(th, at, key)

	pos := t.probeLeafLocked(th, n, key).at
	if pos < 0 {
		th.Unlatch(n.off + offLock)
		return 0, false
	}
	box := t.ptrAt(th, n, pos)
	if t.opts.InlineValues {
		// Count on from where the search stopped: the terminator lies on
		// this record line or one the walk reaches serially, where count()'s
		// check of its hint jumps to the node's last entry and pays for
		// that line.
		cnt := t.scanBoundFrom(th, n, pos)
		th.BeginPhase(pmem.PhaseUpdate)
		t.fastDelete(th, n, pos, cnt)
		th.Unlatch(n.off + offLock)
		return box, true
	}
	if wantOld {
		old = th.Load(int64(box))
	}
	th.BeginPhase(pmem.PhaseUpdate)
	// The tombstone is the whole delete: commit store, its line, one fence.
	t.storePtr(th, n, pos, leafSentinel(n.off))
	th.Flush(t.slotOff(n, pos)+8, 8)
	th.Unlatch(n.off + offLock)
	// The delete is durable and no reader trusts the slot any more, but one
	// that found the box before the commit store may not have loaded it yet.
	t.pool.Retire(th, int64(box), 8)
	return old, true
}
