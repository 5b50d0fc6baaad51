package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
)

// Options configures a BTree.
type Options struct {
	// NodeSize is the node size in bytes (multiple of 64, >= 128).
	// Default 512, the sweet spot found in Figure 3 of the paper.
	NodeSize int
	// RootSlot selects which pool root-pointer slot anchors this tree,
	// letting several trees share one pool (TPC-C uses this). Default 0.
	RootSlot int
	// LeafLocks makes readers take shared leaf latches, trading the
	// lock-free search's read-uncommitted isolation for serializable
	// point reads (the FAST+FAIR+LeafLock variant of Figure 7).
	LeafLocks bool
	// BinarySearch switches in-node search from the paper's linear scan
	// to binary search. Binary search is incompatible with the lock-free
	// protocol (it cannot honour the scan-direction rule), so it is for
	// single-threaded use only — it exists to reproduce Figure 3.
	BinarySearch bool
	// LoggedSplit replaces FAIR with legacy redo-logged splits, the
	// FAST+Logging baseline ("L") of Figure 5: in-node updates still use
	// FAST, but each split first saves the node's pre-split image in a
	// pmem.ImageLog anchored at root slot RootSlot+4, so RootSlot must be
	// <= 3. Recovery restores a committed image, which may orphan a
	// sibling already linked: with the volatile allocator that is a leak,
	// not a correctness problem.
	LoggedSplit bool
	// InlineValues stores values directly in leaf records instead of
	// boxing them into arena cells. This is the paper's own setup — leaf
	// "pointers" are the values — and saves one allocation and one flush
	// per insert, but the caller must guarantee that values are unique
	// across the tree and non-zero: the duplicate-pointer protocol reads
	// equal adjacent record pointers as invalidity, and a zero pointer as
	// the array terminator. Insert rejects zero values in this mode.
	InlineValues bool
}

func (o *Options) fill() error {
	if o.NodeSize == 0 {
		o.NodeSize = 512
	}
	if o.NodeSize < 128 || o.NodeSize%pmem.LineSize != 0 {
		return fmt.Errorf("%w: NodeSize %d must be a multiple of %d and >= 128",
			ErrBadOptions, o.NodeSize, pmem.LineSize)
	}
	if o.RootSlot < 0 || o.RootSlot > 7 {
		return fmt.Errorf("%w: RootSlot %d out of range", ErrBadOptions, o.RootSlot)
	}
	if o.LoggedSplit && o.RootSlot > 3 {
		return fmt.Errorf("%w: LoggedSplit requires RootSlot <= 3", ErrBadOptions)
	}
	return nil
}

// BTree is a FAST+FAIR persistent B+-tree over a pmem.Pool.
//
// All methods take a *pmem.Thread; concurrent use requires one Thread per
// goroutine. Writers serialise per node with volatile latches; readers are
// lock-free (or take shared leaf latches with Options.LeafLocks).
type BTree struct {
	pool       *pmem.Pool
	opts       Options
	nodeSize   int
	slots      int    // record slots per node
	maxEntries int    // slots - 1: the last slot always keeps a zero ptr
	deadBit    uint64 // 1 on a boxed tree: an odd leaf pointer is a tombstone (node.go)
	rootMu     sync.Mutex
	splitLog   pmem.ImageLog // for Options.LoggedSplit

	// suspect is set while the image may hold what only a crash leaves
	// behind — a duplicate-pointer pair from an abandoned shift, a FAIR
	// truncation that did not persist — and nobody has swept it yet: from
	// Open until a Recover completes. A crash-free writer finishes its own
	// node before unlatching, so on a tree that is not suspect the lazy
	// repair pass has nothing to find and is skipped.
	suspect atomic.Bool
}

// New creates an empty tree anchored at opts.RootSlot and persists it.
func New(p *pmem.Pool, th *pmem.Thread, opts Options) (*BTree, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	t := newHandle(p, opts)
	root, err := t.allocNode(th, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	th.Flush(root.off, int64(t.nodeSize))
	p.SetRoot(th, opts.RootSlot, root.off)
	if opts.LoggedSplit {
		if t.splitLog, err = pmem.OpenImageLog(p, th, opts.RootSlot+4, int64(t.nodeSize)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Open attaches to a tree previously created in the pool (e.g. a crash
// image). It performs no recovery; call Recover to repair transient
// inconsistency eagerly, or rely on readers tolerating it and writers fixing
// it lazily — until a Recover has run, every latched write first repairs the
// node it is about to change (see fixNodeLocked). The lazy route is open only
// to images whose nodes carry high keys (node.go): one written before they
// did must be recovered first.
func Open(p *pmem.Pool, th *pmem.Thread, opts Options) (*BTree, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	t := newHandle(p, opts)
	if p.Root(th, opts.RootSlot) == 0 {
		return nil, fmt.Errorf("%w: no tree at root slot %d", ErrCorrupt, opts.RootSlot)
	}
	if opts.LoggedSplit {
		var err error
		if t.splitLog, err = pmem.OpenImageLog(p, th, opts.RootSlot+4, int64(t.nodeSize)); err != nil {
			return nil, err
		}
		t.restoreSplitLog(th)
	}
	t.suspect.Store(true)
	return t, nil
}

func newHandle(p *pmem.Pool, opts Options) *BTree {
	slots := (opts.NodeSize - headerBytes) / recordBytes
	t := &BTree{
		pool:       p,
		opts:       opts,
		nodeSize:   opts.NodeSize,
		slots:      slots,
		maxEntries: slots - 1,
	}
	if !opts.InlineValues {
		t.deadBit = 1
	}
	return t
}

// Pool returns the backing pool.
func (t *BTree) Pool() *pmem.Pool { return t.pool }

// NodeSize returns the configured node size in bytes.
func (t *BTree) NodeSize() int { return t.nodeSize }

func (t *BTree) root(th *pmem.Thread) node {
	return node{t.pool.Root(th, t.opts.RootSlot)}
}

// Height returns the number of levels (1 for a lone leaf).
func (t *BTree) Height(th *pmem.Thread) int {
	return t.level(th, t.root(th)) + 1
}

// --- descent -------------------------------------------------------------

// descendToLeaf routes from the root to the leaf whose range covers key,
// following sibling pointers across in-flight splits (B-link move-right).
func (t *BTree) descendToLeaf(th *pmem.Thread, key uint64) node {
	n := t.root(th)
	for {
		next := t.step(th, n, key)
		if next == n {
			return n
		}
		n = next
	}
}

// step is one hop of a descent toward key's leaf, the lock-free step every
// lookup takes at every node: to n's right sibling when key lies at or
// beyond n's high fence, otherwise one level down to the child covering
// key. On the leaf that covers key it stays: it returns n.
func (t *BTree) step(th *pmem.Thread, n node, key uint64) node {
	if sib := t.rightOf(th, n, key); sib.valid() {
		return sib
	}
	if t.level(th, n) == 0 {
		return n
	}
	return node{int64(t.routeChild(th, n, key))}
}

// scanBound returns the index of the first zero pointer — the terminator —
// which upper-bounds right-to-left scans. In delete mode zero slots only
// spread leftward, so a bound read before the scan stays valid during it;
// stale non-zero slots *beyond* the terminator (pre-split leftovers, consumed
// lazily by fastInsert) are never visited. The scan is line-granular: one
// latency charge per record line, terminator located in the snapshot.
func (t *BTree) scanBound(th *pmem.Thread, n node) int { return t.scanBoundFrom(th, n, 0) }

// scanBoundFrom is scanBound for a caller that knows every slot before from
// holds a non-zero pointer: the walk starts at from's record line. A latched
// search that stopped on that line continues to the terminator for free —
// the line it stands on and each line after it are serial accesses.
func (t *BTree) scanBoundFrom(th *pmem.Thread, n node, from int) int {
	var ln [pmem.WordsPerLine]uint64
	for base := from - from%slotsPerLine; base < t.slots; base += slotsPerLine {
		th.LoadLine(t.slotOff(n, base), &ln)
		for j := 0; j < slotsPerLine; j++ {
			if ln[2*j+1] == 0 {
				return base + j
			}
		}
	}
	return t.slots
}

// bracketSlot re-reads slot i with the per-word protocol: the key
// double-read bracketing the pointer and left-neighbour reads (Algorithm
// 3's validity check). It is the authority behind every line-snapshot
// candidate — the snapshot finds slots worth looking at, the bracket
// decides. The left neighbour must be read inside the bracket: a stale
// value could validate an entry whose pointer still holds the
// left-duplicate of an in-flight insert. Callers classify the readout:
//
//	k1 != k2                     torn (a shift is running): re-snapshot
//	k1 == k2, !validPtr(p, prev)   committed invalid — terminator, duplicate
//	                               or tombstone: skip the slot
//	k1 == k2, validPtr(p, prev)    valid entry (k1, p)
func (t *BTree) bracketSlot(th *pmem.Thread, n node, i int) (k1, p, prev, k2 uint64) {
	k1 = t.keyAt(th, n, i)
	p = t.ptrAt(th, n, i)
	prev = t.leftPtrOf(th, n, i)
	k2 = t.keyAt(th, n, i)
	return
}

// The lock-free in-node search (search, behind routeChild and leafFind) and
// leafCollect are line-granular: whole cache lines are snapshotted (one
// latency charge and one batched stats update per line, see
// pmem.Thread.LoadLine) and the snapshot drives the slot walk, with per-word
// reads reserved for confirming candidate slots. Word order inside a
// snapshot follows the walk's direction — ascending in insert mode,
// descending (LoadLineRev) in delete mode — so the FAST shift-visibility
// argument (an entry shifting toward the walk's front is seen twice at worst;
// one shifting away is always copied to its destination before its source
// is overwritten, and the destination is read later) carries over word for
// word. A candidate's bracket must show the key its snapshot showed: one
// that shows another key, or the same key under a pointer gone invalid,
// means the node shifted after the line was captured — a shift passing
// through may have copied the entry on, to a slot the snapshot read before
// the copy — so the snapshot is not trusted past that slot. The whole-walk
// switch-counter revalidation brackets every walk.

// search returns the last valid entry of n whose key is <= key, its key and
// pointer, confirmed by its bracket; ok is false when no entry qualifies. It
// is the one lock-free in-node search (Algorithm 3), in the switch counter's
// direction, for internal nodes and leaves alike.
//
// Under an even counter it walks the record lines left to right and stops at
// the first snapshot-valid entry whose key exceeds key, or equals it (valid
// keys ascend): it reads the lines up to that entry, not up to the
// terminator. No valid entry with a key <= key lies right of the stop, so a
// leaf lookup may stop where routing stops:
//   - node.go's rule 1 keeps keys, the stale keys of tombstones included,
//     weakly ordered over every slot in use, and snapshot validity (validPtr
//     against the pointer before it in the same pass) skips duplicates and
//     tombstones;
//   - an even counter admits only right shifts, which copy slot i to i+1
//     pointer first, key second, from the end down, so that order holds at
//     every instant;
//   - an entry inserted after the walk passed its slot lands left of every
//     larger key, the stop's included.
//
// The candidate is then bracketed. Snapshot validity keeps committed invalid
// slots out of the candidate seat, so a bracket that fails means the node
// changed since its line was read, and the walk starts over.
//
// Under an odd counter it walks right to left from the terminator (slots
// beyond it can hold stale pre-split entries, see fastInsert) and takes the
// first entry with a key <= key whose bracket confirms it. A torn bracket
// re-snapshots the line and re-examines the slot; a coherently invalid one —
// a duplicate a crash left, or a tombstone stored since the snapshot —
// re-snapshots the line and moves on.
func (t *BTree) search(th *pmem.Thread, n node, key uint64) (k, p uint64, ok bool) {
	if t.opts.BinarySearch {
		return t.searchBinary(th, n, key)
	}
	var ln [pmem.WordsPerLine]uint64
	for {
		sw := t.switchCtr(th, n)
		k, p, ok = 0, 0, false
		if sw%2 == 0 {
			cand, ck := -1, uint64(0)
			prev := t.leftmost(th, n)
		scan:
			for base := 0; base < t.slots; base += slotsPerLine {
				th.LoadLine(t.slotOff(n, base), &ln)
				for j := 0; j < slotsPerLine; j++ {
					sk, sp := ln[2*j], ln[2*j+1]
					if sp == 0 {
						break scan
					}
					if t.validPtr(sp, prev) {
						if sk > key {
							break scan
						}
						cand, ck = base+j, sk
						if sk == key {
							break scan
						}
					}
					prev = sp
				}
			}
			if cand >= 0 {
				k1, p2, prevW, k2 := t.bracketSlot(th, n, cand)
				if k1 != ck || k2 != ck || !t.validPtr(p2, prevW) {
					continue
				}
				k, p, ok = ck, p2, true
			}
		} else {
			last := t.scanBound(th, n) - 1
		scanR:
			for base := last - last%slotsPerLine; base >= 0 && last >= 0; base -= slotsPerLine {
				th.LoadLineRev(t.slotOff(n, base), &ln)
				for j := min(slotsPerLine-1, last-base); j >= 0; {
					sk, sp := ln[2*j], ln[2*j+1]
					if sp == 0 || t.dead(sp) || sk > key {
						j--
						continue
					}
					k1, p2, prevW, k2 := t.bracketSlot(th, n, base+j)
					torn := k1 != sk || k2 != sk
					if !torn && t.validPtr(p2, prevW) {
						k, p, ok = sk, p2, true
						break scanR
					}
					th.LoadLineRev(t.slotOff(n, base), &ln)
					if !torn {
						j--
					}
				}
			}
		}
		if t.switchCtr(th, n) == sw {
			return k, p, ok
		}
	}
}

// searchBinary is search by binary search over the slots in use, the Figure
// 3 variant (single-threaded: it cannot honour the switch counter's
// direction). It finds the last slot whose key is <= key and walks left past
// invalid slots, the tombstones a leaf keeps.
func (t *BTree) searchBinary(th *pmem.Thread, n node, key uint64) (k, p uint64, ok bool) {
	lo, hi := 0, t.count(th, n) // lo: first slot with a key > key
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keyAt(th, n, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo - 1; i >= 0; i-- {
		if p := t.ptrAt(th, n, i); t.validPtr(p, t.leftPtrOf(th, n, i)) {
			return t.keyAt(th, n, i), p, true
		}
	}
	return 0, 0, false
}

// routeChild finds the child covering key in internal node n: the pointer of
// the last valid entry with a key <= key, or the leftmost child when key
// precedes every entry. Routing left of the true child is safe in any case:
// the child's high key sends the descent right (step).
func (t *BTree) routeChild(th *pmem.Thread, n node, key uint64) uint64 {
	if _, p, ok := t.search(th, n, key); ok {
		return p
	}
	return t.leftmost(th, n)
}

// --- point lookup ----------------------------------------------------------

// Get returns the value stored under key.
//
// A boxed value is two reads — the box pointer out of the leaf, then the
// box — and a concurrent Remove may retire the box in between. The grace
// section keeps it from being handed to another key until the load is done,
// so a reader racing a delete sees the pre-delete value, never a recycled
// cell. The section opens before the descent, not at the leaf: a FAIR split
// links the sibling before it truncates the node, and in between a key of
// the upper half can be deleted from the sibling — its box retired — while
// the node still names it. Such a delete reaches the sibling only past the
// node's lowered high key, and the descent moves right once it sees that; a
// reader that loaded the high key before it was lowered did so inside its
// section, which then predates the Retire.
func (t *BTree) Get(th *pmem.Thread, key uint64) (uint64, bool) {
	if !t.opts.InlineValues {
		th.Enter()
		defer th.Exit()
	}
	return t.readLeaf(th, t.descendToLeaf(th, key), key)
}

// readLeaf is a lookup's leaf phase: the search of n, the leaf its descent
// reached, the box load, and the chase right for a key a split moved past
// n. A boxed tree's caller holds th's grace section from before the descent
// (see Get).
func (t *BTree) readLeaf(th *pmem.Thread, n node, key uint64) (uint64, bool) {
	boxed := !t.opts.InlineValues
	for {
		if t.opts.LeafLocks {
			th.RLatch(n.off + offLock)
		}
		val, found := t.leafFind(th, n, key)
		if found && boxed {
			val = th.Load(int64(val))
		}
		var sib node
		if !found {
			// The key may have moved right past us (in-flight
			// split); chase the sibling while it can cover key. A
			// truncation that hid the key came after the high-key
			// store, so this load sees the lowered fence.
			sib = t.rightOf(th, n, key)
		}
		if t.opts.LeafLocks {
			th.RUnlatch(n.off + offLock)
		}
		if found {
			return val, true
		}
		if !sib.valid() {
			return 0, false
		}
		n = sib
	}
}

// A Lookup is one key of a batch descent (Descend, GetBatch): the tree to
// search and the thread to search it with, which belongs to the calling
// goroutine, and once GetBatch returns the answer Get would have given.
type Lookup struct {
	Tree  *BTree
	Th    *pmem.Thread
	Key   uint64
	Val   uint64
	Found bool

	at   node // the node the descent stands on
	leaf bool // at is the leaf covering Key
}

// A Leaf is where a descent stopped: the leaf that covered its key when the
// descent reached it. A writer handed one (UpsertFrom, RemoveFrom) starts
// there instead of at the root; the zero Leaf starts at the root.
type Leaf struct{ n node }

// Leaf returns the leaf Descend brought l to.
func (l *Lookup) Leaf() Leaf { return Leaf{l.at} }

// Descend brings every lookup in ls to the leaf covering its key,
// interleaving the descents: each round moves every descent not yet on its
// leaf one step, and prefetches the node it stepped to, so that node's lines
// fill while the other lookups take their steps, where a lone descent waits
// out its own chain of misses. It is the one batched descent, behind
// GetBatch's reads and a store commit's writes.
//
// A descent takes no latch and has no effect, so its leaf is the one a
// lone descent would have reached, only earlier: a split since moves the
// key's range right of it, never left, and the lookup or the writer that
// starts there chases it right (readLeaf, latchAt). The caller must keep the
// trees' nodes from being freed (Vacuum) until it is done with the leaves.
func Descend(ls []Lookup) {
	for i := range ls {
		l := &ls[i]
		l.at, l.leaf = l.Tree.root(l.Th), false
	}
	for left := len(ls); left > 0; {
		for i := range ls {
			l := &ls[i]
			if l.leaf {
				continue
			}
			if next := l.Tree.step(l.Th, l.at, l.Key); next == l.at {
				l.leaf = true
				left--
			} else {
				l.at = next
				l.Th.Prefetch(next.off, l.Tree.nodeSize/pmem.LineSize)
			}
		}
	}
}

// GetBatch answers every lookup in ls: their descents advance together
// (Descend), and the leaf phases then run one lookup at a time, in slice
// order.
//
// A descent has no linearisation point — only the leaf phase does — so a
// batch cannot be told apart from its Gets run one after another in slice
// order; each descent is a Get's own that was slow to reach its leaf. Every
// lookup on a boxed tree holds its thread's grace section from before its
// descent to after its box load (see Get); the sections nest, so a thread
// shared by many lookups announces once.
func GetBatch(ls []Lookup) {
	for i := range ls {
		if l := &ls[i]; !l.Tree.opts.InlineValues {
			l.Th.Enter()
		}
	}
	defer exitBatch(ls)
	Descend(ls)
	for i := range ls {
		l := &ls[i]
		l.Val, l.Found = l.Tree.readLeaf(l.Th, l.at, l.Key)
	}
}

// exitBatch closes the grace sections GetBatch opened.
func exitBatch(ls []Lookup) {
	for i := range ls {
		if !ls[i].Tree.opts.InlineValues {
			ls[i].Th.Exit()
		}
	}
}

// leafFind returns key's value box in leaf n: the entry search finds, when
// its key is key.
func (t *BTree) leafFind(th *pmem.Thread, n node, key uint64) (uint64, bool) {
	k, p, ok := t.search(th, n, key)
	return p, ok && k == key
}

// --- range scan ------------------------------------------------------------

// scanScratch is the reusable leaf-snapshot buffer pair behind Scan. It is
// pooled so steady-state scans allocate nothing. The pool is package-level:
// it holds no tree state, and a sync.Pool inside a tree would be listed by
// the runtime after its first Put, keeping a dropped tree, its pmem.Pool and
// the arena alive for two more collections.
type scanScratch struct {
	keys  []uint64
	boxes []uint64
}

var scanScratchPool sync.Pool // *scanScratch

// Scan visits key/value pairs with lo <= key <= hi in ascending key order,
// calling fn for each; fn returning false stops the scan. Under concurrent
// writes the scan has the paper's read-uncommitted semantics. Steady-state
// scans are allocation-free: the per-leaf snapshot buffers come from a pool.
//
// Each leaf is visited inside one grace section (see Get) that covers the
// snapshot of its box pointers, the read of its sibling pointer and the box
// loads, which stay lazy: only the pairs handed to fn are loaded. fn
// therefore runs inside the section — it may use the tree, but must not
// block or wait for a grace period itself (pmem.Pool.Synchronize): while it
// runs, no retired block in the pool is recycled. Callers with a callback
// they do not control collect a page here and hand it on afterwards.
func (t *BTree) Scan(th *pmem.Thread, lo, hi uint64, fn func(key, val uint64) bool) {
	if hi < lo {
		return
	}
	sc, _ := scanScratchPool.Get().(*scanScratch)
	if sc == nil {
		sc = new(scanScratch)
	}
	defer scanScratchPool.Put(sc)
	n := t.descendToLeaf(th, lo)
	keys, boxes := sc.keys, sc.boxes
	boxed := !t.opts.InlineValues
	open := false // inside a leaf's section: fn may leave by panic or Goexit
	defer func() {
		sc.keys, sc.boxes = keys, boxes
		if open {
			th.Exit()
		}
	}()
	last := lo
	first := true
	for n.valid() {
		if t.opts.LeafLocks {
			th.RLatch(n.off + offLock)
		}
		if boxed {
			th.Enter()
			open = true
		}
		keys, boxes = t.leafCollect(th, n, keys[:0], boxes[:0])
		fence := t.highKey(th, n) // before the sibling pointer, see node.go
		sib := t.sibling(th, n)
		if t.opts.LeafLocks {
			th.RUnlatch(n.off + offLock)
		}
		// Entries at or beyond the high fence are the sibling's to report.
		// A leaf holds such entries between a split's high-key store and
		// its truncation (and for good when a crash fell in between): a
		// key deleted from the sibling meanwhile is still named here,
		// with a box that may have been retired before this section
		// opened. Deletes reach the sibling only past the lowered high
		// key: one this load missed was stored after the section opened,
		// and so was every Retire behind it.
		onward := sib.valid() && fence <= hi // the sibling may hold keys <= hi
		keys, boxes = inRange(keys, boxes, lo, hi, fence, onward)
		if boxed {
			for _, b := range boxes[:min(scanHintAhead, len(boxes))] {
				hintBox(th, b)
			}
		}
		stop := false
		for i, k := range keys {
			if boxed && i+scanHintAhead < len(boxes) {
				hintBox(th, boxes[i+scanHintAhead])
			}
			// Monotonic filter: in-flight splits briefly expose an
			// entry in both a node and its new sibling.
			if !first && k <= last {
				continue
			}
			last, first = k, false
			v := boxes[i]
			if boxed {
				v = th.Load(int64(v))
			}
			if stop = !fn(k, v); stop {
				break
			}
		}
		if boxed {
			th.Exit()
			open = false
		}
		if stop || !onward {
			return
		}
		n = sib
	}
}

// scanHintAhead is how many entries ahead of the box it loads Scan hints a
// box: the first scanHintAhead of a leaf's entries before its first load,
// then the one scanHintAhead ahead with each load, so the box loads of a
// leaf overlap their host misses instead of taking them one at a time.
const scanHintAhead = 8

// hintBox asks the host to start filling the line holding box b. It is a
// hint (pmem.Thread.Prefetch): it counts and charges nothing.
func hintBox(th *pmem.Thread, b uint64) {
	th.Prefetch(int64(b)&^(pmem.LineSize-1), 1)
}

// inRange compacts a leaf snapshot, in place and in order, to the entries
// Scan may hand to fn: keys in [lo, hi] and, when the scan goes on to the
// sibling, below the leaf's high fence.
func inRange(keys, boxes []uint64, lo, hi, fence uint64, onward bool) ([]uint64, []uint64) {
	n := 0
	for i, k := range keys {
		if k < lo || k > hi || (onward && k >= fence) {
			continue
		}
		keys[n], boxes[n] = k, boxes[i]
		n++
	}
	return keys[:n], boxes[:n]
}

// leafCollect snapshots a leaf's valid entries in ascending order: line
// snapshots drive the walk — quiescent lines (verified by a double read)
// yield their entries directly, contended lines fall back to per-word
// bracket confirmation per slot — and the whole pass is revalidated against
// the switch counter.
func (t *BTree) leafCollect(th *pmem.Thread, n node, keys []uint64, boxes []uint64) ([]uint64, []uint64) {
	var ln, ln2 [pmem.WordsPerLine]uint64
	for {
		keys, boxes = keys[:0], boxes[:0]
		sw := t.switchCtr(th, n)
		if sw%2 == 0 {
			// Each line is read twice; two identical images mean the
			// line was quiescent across the window, so validity comes
			// straight from the image with no per-slot brackets. A
			// word changing and changing back between the reads would
			// need a shift the other way (shifts move entries
			// monotonically within one direction; a left shift flips
			// the switch counter, which the revalidation below
			// rejects), racing in-place value updates, whose either
			// value is a committed one, or a slot that is tombstoned
			// and taken back: pointer, sentinel, pointer. That last
			// one flips nothing, but it cannot show one image twice:
			// the pointer that comes back is another box — the old
			// one was retired, and no retired block is recycled while
			// this reader's grace section (Scan) is open. A line
			// caught mid-shift falls back to bracket-confirmed slots.
			prev := t.leftmost(th, n)
		scan:
			for base := 0; base < t.slots; base += slotsPerLine {
				off := t.slotOff(n, base)
				th.LoadLine(off, &ln)
				th.LoadLine(off, &ln2)
				if ln == ln2 {
					for j := 0; j < slotsPerLine; j++ {
						k, p := ln[2*j], ln[2*j+1]
						if p == 0 {
							break scan
						}
						if p != prev && !t.dead(p) {
							keys = append(keys, k)
							boxes = append(boxes, p)
						}
						prev = p
					}
					continue
				}
				for j := 0; j < slotsPerLine; {
					k, p := ln2[2*j], ln2[2*j+1]
					if p == 0 {
						break scan
					}
					if p == prev || t.dead(p) {
						prev = p
						j++
						continue
					}
					k1, p2, prevW, k2 := t.bracketSlot(th, n, base+j)
					if k1 != k || k1 != k2 {
						th.LoadLine(off, &ln2)
						if j > 0 {
							prev = ln2[2*j-1]
						}
						continue
					}
					if t.validPtr(p2, prevW) {
						keys = append(keys, k1)
						boxes = append(boxes, p2)
					} else {
						th.LoadLine(off, &ln2)
					}
					prev = ln2[2*j+1]
					j++
				}
			}
		} else {
			// Delete direction: scan right to left so a concurrent
			// left-shift cannot move an entry past us, then reverse.
			last := t.scanBound(th, n) - 1
			for base := (last / slotsPerLine) * slotsPerLine; base >= 0 && last >= 0; base -= slotsPerLine {
				th.LoadLineRev(t.slotOff(n, base), &ln)
				top := slotsPerLine - 1
				if base+top > last {
					top = last - base
				}
				for j := top; j >= 0; {
					k, p := ln[2*j], ln[2*j+1]
					if p == 0 {
						j--
						continue
					}
					k1, p2, prevW, k2 := t.bracketSlot(th, n, base+j)
					if k1 != k || k1 != k2 {
						th.LoadLineRev(t.slotOff(n, base), &ln)
						continue
					}
					if t.validPtr(p2, prevW) {
						keys = append(keys, k1)
						boxes = append(boxes, p2)
					}
					j--
				}
			}
			for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
				keys[i], keys[j] = keys[j], keys[i]
				boxes[i], boxes[j] = boxes[j], boxes[i]
			}
			// A right-to-left scan can observe the same logical
			// entry at two slots mid-shift; drop adjacent
			// duplicates (keep the later-observed, lower slot).
			w := 0
			for i := 0; i < len(keys); i++ {
				if w > 0 && keys[w-1] == keys[i] {
					continue
				}
				keys[w], boxes[w] = keys[i], boxes[i]
				w++
			}
			keys, boxes = keys[:w], boxes[:w]
		}
		if t.switchCtr(th, n) == sw {
			return keys, boxes
		}
	}
}

// Len counts the keys in the tree (a full scan; intended for tests and
// examples, not hot paths).
func (t *BTree) Len(th *pmem.Thread) int {
	n := 0
	t.Scan(th, 0, ^uint64(0), func(uint64, uint64) bool { n++; return true })
	return n
}
