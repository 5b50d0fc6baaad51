// Package core implements the paper's contribution: a persistent B+-tree
// whose in-node writes use Failure-Atomic ShifT (FAST) and whose structure
// modifications use Failure-Atomic In-place Rebalance (FAIR).
//
// Every 8-byte store performed by FAST and FAIR moves the tree from one
// consistent state either to another consistent state or to a *transient
// inconsistent* state that readers detect — via duplicate adjacent pointers —
// and tolerate. Because readers tolerate the inconsistency, the tree needs
// no logging, no copy-on-write, and no read latches: search is lock-free.
//
// The tree lives entirely inside a pmem.Pool arena. Node references and leaf
// values are arena offsets, keys and values are uint64, and leaf values are
// boxed into arena cells so that leaf record pointers are unique — the
// property the duplicate-pointer protocol relies on.
package core

import (
	"errors"
	"fmt"

	"repro/internal/pmem"
)

// Node layout. A node occupies NodeSize bytes, 64-byte aligned:
//
//	word 0  meta      level (bits 0..15) | deleted flag (bit 16)
//	word 1  leftmost  internal: leftmost child offset
//	                  leaf:     per-node odd sentinel (nodeOff|1), the
//	                            "pointer to the left of slot 0" in the
//	                            duplicate-pointer protocol
//	word 2  sibling   right sibling offset (0 = none)
//	word 3  switch    op-direction counter: even = last op was an insert
//	                  (readers scan left→right), odd = delete (right→left)
//	word 4  lastIdx   volatile entry-count hint; never trusted after crash
//	word 5  lock      volatile pmem latch word (Thread.Latch): writers
//	                  latch, LeafLock readers share; recovery re-zeroes it
//	word 6  lowKey    low fence key (B-link): smallest key this node may
//	                  hold; immutable once set
//	word 7  highKey   high fence key: a copy of the right sibling's lowKey,
//	                  ^0 while the node has no sibling. Every move-right
//	                  test is key >= highKey && sibling != 0 — two words of
//	                  the header line the reader has already paid for; the
//	                  sibling's own header is not touched
//	+64...  records   16-byte (key, ptr) slots; a zero ptr terminates the
//	                  array, and every slot at or beyond the terminator has
//	                  a zero ptr (maintained by FAST, see insert.go)
//
// Record i's key is valid iff ptr(i) != 0 and ptr(i) != ptr(i-1), where
// ptr(-1) is the leftmost word — and, in a leaf of a boxed tree, ptr(i) is
// even (validPtr). FAST's shifts are ordered so that at every instant exactly
// the committed keys are valid.
//
// The odd word is a tombstone. Box pointers are 8-byte aligned, so no live
// record of a boxed leaf is odd, and a delete there is its commit store
// alone: Remove writes the leaf's own sentinel (leafSentinel, the word slot 0
// already compares against) over the slot's pointer and flushes that line.
// The slot stays where it is — counted by count(), skipped by every reader
// and latched search — until an insert into the leaf takes it back
// (insertIntoLeaf) or Vacuum compacts it. Three rules go with it:
//
//  1. A tombstone keeps a stale key, and that key stays weakly ordered
//     between its neighbours: key(i-1) <= key(i) <= key(i+1) holds over all
//     slots in use, strictly between live ones. Both searches rely on it:
//     the slots holding keys <= k are a prefix, so the latched probe
//     (probeLeafLocked) finds its insertion point in one pass, and the
//     lock-free search (search) stops at the first valid key larger than
//     k. Equality is real — a left shift's first store copies the right
//     neighbour's key into the hole, and a crash may stop there.
//  2. A tombstone is committed state, not damage. Recover leaves it. Two
//     adjacent tombstones, or one in slot 0, are also a duplicate-pointer
//     pair; on a tree not yet recovered repairNodeLocked compacts them like
//     one, which loses a reusable slot and nothing else.
//  3. Only a boxed leaf's own writers store the sentinel, under its latch,
//     into its own slots. Internal nodes never hold an odd word (their
//     pointers are node offsets, so the one search's validPtr reads both
//     levels alike), a split only ever runs on a leaf without one, and
//     Vacuum compacts a leaf before it copies from it. With
//     Options.InlineValues every 64-bit word is a legal value, no tombstone
//     can be encoded, and deletes are FAST's eager left shift (delete.go).
//
// The high key only ever lags behind the link, never runs ahead of it.
// Writers that give a node a nearer sibling (splitBody, and the lazy repair
// of a crashed split) store the sibling pointer, fence, then lower the high
// key, flush the header line once, and only then truncate; Vacuum, which
// gives a node a farther sibling, raises the high key before it stores the
// pointer. Readers load the high key first and the sibling second. So a
// reader — or a crash image — can find a node "linked, high key still the
// old, larger one", and in that state the node is not yet truncated: staying
// put is correct, the not-found chase and the lower level's own move-right
// catch what moved. The reverse (high key lowered, link missing) cannot be
// observed. An image from before word 7 existed holds zero there; Recover
// rewrites the word on every node (repairNodeLocked), so such an image must
// be recovered before it is used — store.Reopen always does.
//
// The layout is deliberately line-granular, and the read path exploits it:
// the header fills exactly one 64-byte cache line, the record area is a
// whole number of lines (NodeSize is a multiple of pmem.LineSize), and each
// record line holds slotsPerLine complete (key, ptr) slots — no slot ever
// straddles a line. In-node search therefore snapshots whole lines
// (pmem.Thread.LoadLine: one latency charge and one batched stats update
// per line, the cost real hardware pays for a line fill) and falls back to
// per-word loads only to confirm candidate slots under the double-read +
// duplicate-pointer bracket. This is the access pattern the paper's
// accounting assumes: clflush counts write-back lines, and serial line
// accesses — not word loads — stand in for effective LLC misses.
const (
	offMeta     = 0
	offLeftmost = 8
	offSibling  = 16
	offSwitch   = 24
	offLastIdx  = 32
	offLock     = 40
	offLowKey   = 48
	offHighKey  = 56
	headerBytes = 64
	recordBytes = 16

	// slotsPerLine is the number of record slots per cache line. The
	// header is exactly one line and NodeSize is a multiple of the line
	// size, so every record line is fully occupied by whole slots.
	slotsPerLine = pmem.LineSize / recordBytes

	metaLevelMask = 0xffff
	metaDeleted   = uint64(1) << 16
)

// Errors returned by the tree.
var (
	ErrTreeFull   = errors.New("core: arena exhausted")
	ErrCorrupt    = errors.New("core: structural invariant violated")
	ErrBadOptions = errors.New("core: invalid options")
)

// node is a typed view of a node offset. It carries the thread so the
// accessors read through the latency model.
type node struct {
	off int64
}

func (n node) valid() bool { return n.off != 0 }

func (t *BTree) meta(th *pmem.Thread, n node) uint64 { return th.Load(n.off + offMeta) }

func (t *BTree) level(th *pmem.Thread, n node) int {
	return int(t.meta(th, n) & metaLevelMask)
}

func (t *BTree) isDeleted(th *pmem.Thread, n node) bool {
	return t.meta(th, n)&metaDeleted != 0
}

func (t *BTree) leftmost(th *pmem.Thread, n node) uint64 { return th.Load(n.off + offLeftmost) }

func (t *BTree) sibling(th *pmem.Thread, n node) node {
	return node{int64(th.Load(n.off + offSibling))}
}

func (t *BTree) switchCtr(th *pmem.Thread, n node) uint64 { return th.Load(n.off + offSwitch) }

func (t *BTree) lowKey(th *pmem.Thread, n node) uint64 { return th.Load(n.off + offLowKey) }

func (t *BTree) highKey(th *pmem.Thread, n node) uint64 { return th.Load(n.off + offHighKey) }

// noHighKey is the high key of a node without a right sibling.
const noHighKey = ^uint64(0)

// rightOf returns the sibling key belongs to when it lies at or beyond n's
// high fence, and an invalid node when n covers key. The high key is loaded
// before the sibling pointer (see the layout comment): whoever sees a lowered
// high key also sees the link that came with it.
func (t *BTree) rightOf(th *pmem.Thread, n node, key uint64) node {
	if key < t.highKey(th, n) {
		return node{}
	}
	return t.sibling(th, n)
}

func (t *BTree) lastIdxHint(th *pmem.Thread, n node) int {
	return int(th.LoadVolatile(n.off + offLastIdx))
}

func (t *BTree) setLastIdxHint(th *pmem.Thread, n node, v int) {
	th.StoreVolatile(n.off+offLastIdx, uint64(v))
}

// slotOff returns the arena offset of record slot i.
func (t *BTree) slotOff(n node, i int) int64 {
	return n.off + headerBytes + int64(i)*recordBytes
}

func (t *BTree) keyAt(th *pmem.Thread, n node, i int) uint64 {
	return th.Load(t.slotOff(n, i))
}

func (t *BTree) ptrAt(th *pmem.Thread, n node, i int) uint64 {
	return th.Load(t.slotOff(n, i) + 8)
}

func (t *BTree) storeKey(th *pmem.Thread, n node, i int, k uint64) {
	th.Store(t.slotOff(n, i), k)
}

func (t *BTree) storePtr(th *pmem.Thread, n node, i int, p uint64) {
	th.Store(t.slotOff(n, i)+8, p)
}

// leftPtrOf returns the pointer immediately to the left of slot i: slot
// i-1's ptr, or the leftmost word for slot 0. It is the reference value of
// the duplicate-pointer validity check.
func (t *BTree) leftPtrOf(th *pmem.Thread, n node, i int) uint64 {
	if i == 0 {
		return t.leftmost(th, n)
	}
	return t.ptrAt(th, n, i-1)
}

// count scans for the terminator under a write lock (where the node has no
// transient state) and returns the number of record slots in use.
func (t *BTree) count(th *pmem.Thread, n node) int {
	// The hint is exact while the node is locked by us, but cheap to
	// verify; fall back to a line-granular scan when it disagrees
	// (post-crash).
	h := t.lastIdxHint(th, n)
	if h >= 0 && h <= t.maxEntries {
		if (h == 0 || t.ptrAt(th, n, h-1) != 0) && t.ptrAt(th, n, h) == 0 {
			return h
		}
	}
	return t.scanBound(th, n)
}

// leafSentinel is the odd pseudo-pointer a leaf uses as its leftmost word
// and, on a boxed tree, as the pointer of a tombstoned slot. It is unique per
// node (derived from the node offset) and can never equal a real record
// pointer (allocations are 8-byte aligned, hence even).
func leafSentinel(off int64) uint64 { return uint64(off) | 1 }

// dead reports whether leaf record pointer p is a tombstone. deadBit is 0
// with InlineValues, where odd words are values.
func (t *BTree) dead(p uint64) bool { return p&t.deadBit != 0 }

// validPtr is the validity rule of the layout comment for a leaf slot whose
// pointer is p and whose left neighbour's is prev.
func (t *BTree) validPtr(p, prev uint64) bool {
	return p != 0 && p != prev && !t.dead(p)
}

// initNode writes a fresh node's header with plain stores. The caller
// persists the node before publishing it.
func (t *BTree) initNode(th *pmem.Thread, n node, level int, leftmost uint64, lowKey uint64) {
	if level == 0 && leftmost == 0 {
		leftmost = leafSentinel(n.off)
	}
	th.Store(n.off+offMeta, uint64(level)&metaLevelMask)
	th.Store(n.off+offLeftmost, leftmost)
	th.Store(n.off+offSibling, 0)
	th.Store(n.off+offSwitch, 0)
	th.StoreVolatile(n.off+offLastIdx, 0)
	th.StoreVolatile(n.off+offLock, 0)
	th.Store(n.off+offLowKey, lowKey)
	th.Store(n.off+offHighKey, noHighKey)
}

// allocNode allocates and initialises a node.
func (t *BTree) allocNode(th *pmem.Thread, level int, leftmost uint64, lowKey uint64) (node, error) {
	off, err := t.pool.Alloc(int64(t.nodeSize), pmem.LineSize)
	if err != nil {
		return node{}, fmt.Errorf("%w: %v", ErrTreeFull, err)
	}
	n := node{off}
	t.initNode(th, n, level, leftmost, lowKey)
	return n, nil
}
