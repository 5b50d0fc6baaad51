// Package wort implements WORT (Write-Optimal Radix Tree, FAST'17), the
// radix-tree baseline the paper evaluates. WORT needs no key sorting and no
// rebalancing: because the radix structure is deterministic, every update
// becomes visible through a single 8-byte atomic pointer store issued after
// the new nodes are persisted, so it is write-optimal (few flushes) but pays
// for it with pointer-chasing reads, poor cache utilisation, and slow range
// queries — the trade-off Figures 4 and 5 measure.
//
// This is a path-compressed 4-bit radix tree over uint64 keys (16 nibbles,
// most significant first). Each node holds a 16-way child array plus a
// one-word header packing its depth and compressed prefix. As in the WORT
// paper, the header's depth field makes a stale prefix — the one transient
// state a crash can leave, between re-parenting a node and rewriting its
// header — detectable and repairable during reads.
package wort

import (
	"fmt"

	"repro/internal/pmem"
)

const (
	fanout    = 16
	nibbles   = 16 // key length in nibbles
	maxPrefix = 12 // prefix nibbles a single header word can compress

	nodeSize = 8 + fanout*8
	leafSize = 16

	leafTag = uint64(1)
)

// Tree is a WORT radix tree anchored at a pool root slot. Writers must be
// externally serialised (the paper evaluates WORT single-threaded); readers
// may run concurrently with one writer.
type Tree struct {
	pool *pmem.Pool
	root int64
	slot int
}

// Options configures a Tree.
type Options struct {
	RootSlot int
}

// New creates an empty tree.
func New(p *pmem.Pool, th *pmem.Thread, opts Options) (*Tree, error) {
	root, err := p.Alloc(nodeSize, pmem.LineSize)
	if err != nil {
		return nil, err
	}
	th.Store(root, packHeader(0, 0, 0))
	th.Flush(root, nodeSize)
	p.SetRoot(th, opts.RootSlot, root)
	return &Tree{pool: p, root: root, slot: opts.RootSlot}, nil
}

// Open attaches to an existing tree (e.g. a crash image).
func Open(p *pmem.Pool, th *pmem.Thread, opts Options) (*Tree, error) {
	root := p.Root(th, opts.RootSlot)
	if root == 0 {
		return nil, fmt.Errorf("wort: no tree at root slot %d", opts.RootSlot)
	}
	return &Tree{pool: p, root: root, slot: opts.RootSlot}, nil
}

// Pool returns the backing pool.
func (t *Tree) Pool() *pmem.Pool { return t.pool }

// packHeader packs depth (nibbles consumed before this node), prefix length,
// and up to maxPrefix prefix nibbles into one failure-atomic word.
func packHeader(depth, plen int, prefix uint64) uint64 {
	return uint64(depth)<<56 | uint64(plen)<<48 | prefix&(1<<48-1)
}

func unpackHeader(h uint64) (depth, plen int, prefix uint64) {
	return int(h >> 56), int(h >> 48 & 0xff), h & (1<<48 - 1)
}

// nibble extracts the i-th most significant nibble of key.
func nibble(key uint64, i int) int {
	return int(key >> uint((nibbles-1-i)*4) & 0xf)
}

// prefixOf packs key's nibbles [from, from+n) into a prefix field.
func prefixOf(key uint64, from, n int) uint64 {
	var p uint64
	for j := 0; j < n; j++ {
		p = p<<4 | uint64(nibble(key, from+j))
	}
	return p
}

func prefixNibble(prefix uint64, plen, j int) int {
	return int(prefix >> uint((plen-1-j)*4) & 0xf)
}

func childOff(n int64, idx int) int64 { return n + 8 + int64(idx)*8 }

// effHeader reads a node header at traversal depth d, adjusting for a stale
// prefix: if a crash (or in-flight split) re-parented the node before its
// header rewrite persisted, the stored depth is smaller than d and the first
// d-storedDepth prefix nibbles have already been consumed by new ancestors.
func (t *Tree) effHeader(th *pmem.Thread, n int64, d int) (plen int, prefix uint64) {
	sd, sl, sp := unpackHeader(th.Load(n))
	if sd == d {
		return sl, sp
	}
	skip := d - sd
	if skip < 0 || skip > sl {
		// The node is from a newer epoch than the traversal (in-flight
		// split seen mid-publish); treat as empty prefix.
		return 0, 0
	}
	return sl - skip, sp & (1<<uint((sl-skip)*4) - 1)
}

// Get returns the value stored under key.
func (t *Tree) Get(th *pmem.Thread, key uint64) (uint64, bool) {
	n, d := t.root, 0
	for {
		plen, prefix := t.effHeader(th, n, d)
		for j := 0; j < plen; j++ {
			if nibble(key, d+j) != prefixNibble(prefix, plen, j) {
				return 0, false
			}
		}
		d += plen
		c := th.Load(childOff(n, nibble(key, d)))
		switch {
		case c == 0:
			return 0, false
		case c&leafTag != 0:
			leaf := int64(c &^ leafTag)
			if th.Load(leaf) != key {
				return 0, false
			}
			return th.Load(leaf + 8), true
		default:
			n, d = int64(c), d+1
		}
	}
}

// Insert stores val under key, replacing an existing value in place.
// Every structural change is committed by one atomic 8-byte store after the
// subtree it publishes has been persisted.
func (t *Tree) Insert(th *pmem.Thread, key, val uint64) error {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	n, d := t.root, 0
	parentSlot := int64(-1) // slot that references n; -1 for the root
	for {
		hdr := th.Load(n)
		sd, _, _ := unpackHeader(hdr)
		if sd != d {
			// Lazy repair of a stale header (crash between
			// re-parent and header rewrite): rewrite atomically.
			plen, prefix := t.effHeader(th, n, d)
			th.BeginPhase(pmem.PhaseUpdate)
			th.Store(n, packHeader(d, plen, prefix))
			th.Flush(n, 8)
			th.BeginPhase(pmem.PhaseSearch)
			continue
		}
		plen, prefix := unpackHeader2(hdr)
		mism := -1
		for j := 0; j < plen; j++ {
			if nibble(key, d+j) != prefixNibble(prefix, plen, j) {
				mism = j
				break
			}
		}
		if mism >= 0 {
			th.BeginPhase(pmem.PhaseUpdate)
			return t.splitPrefix(th, n, parentSlot, d, plen, prefix, mism, key, val)
		}
		d += plen
		idx := nibble(key, d)
		slot := childOff(n, idx)
		c := th.Load(slot)
		switch {
		case c == 0:
			th.BeginPhase(pmem.PhaseUpdate)
			leaf, err := t.newLeaf(th, key, val)
			if err != nil {
				return err
			}
			th.Store(slot, uint64(leaf)|leafTag)
			th.Flush(slot, 8)
			return nil
		case c&leafTag != 0:
			leaf := int64(c &^ leafTag)
			k2 := th.Load(leaf)
			if k2 == key {
				th.BeginPhase(pmem.PhaseUpdate)
				th.Store(leaf+8, val)
				th.Flush(leaf+8, 8)
				return nil
			}
			th.BeginPhase(pmem.PhaseUpdate)
			return t.splitLeaf(th, slot, d+1, c, k2, key, val)
		default:
			n, d = int64(c), d+1
			parentSlot = slot
		}
	}
}

func unpackHeader2(h uint64) (plen int, prefix uint64) {
	_, plen, prefix = unpackHeader(h)
	return plen, prefix
}

func (t *Tree) newLeaf(th *pmem.Thread, key, val uint64) (int64, error) {
	leaf, err := t.pool.Alloc(leafSize, 8)
	if err != nil {
		return 0, err
	}
	th.Store(leaf, key)
	th.Store(leaf+8, val)
	th.Flush(leaf, leafSize)
	return leaf, nil
}

// splitLeaf replaces a leaf slot with nodes covering the common nibbles of
// the existing key k2 and the new key, branching to both leaves at their
// divergence. Only the final slot store publishes the subtree.
func (t *Tree) splitLeaf(th *pmem.Thread, slot int64, d int, oldChild uint64, k2, key, val uint64) error {
	cpl := 0
	for nibble(key, d+cpl) == nibble(k2, d+cpl) {
		cpl++
	}
	leaf, err := t.newLeaf(th, key, val)
	if err != nil {
		return err
	}
	top, err := t.buildSplit(th, d, cpl, key, uint64(leaf)|leafTag, k2, oldChild)
	if err != nil {
		return err
	}
	th.Store(slot, top)
	th.Flush(slot, 8)
	return nil
}

// buildSplit creates (and persists, bottom-up) the node chain that consumes
// cpl common nibbles starting at depth d and then branches to newChild (the
// key path) and oldChild (the k2 path). A node compresses at most maxPrefix
// nibbles; longer runs chain through single-child nodes.
func (t *Tree) buildSplit(th *pmem.Thread, d, cpl int, key uint64, newChild uint64, k2 uint64, oldChild uint64) (uint64, error) {
	plen := cpl
	if plen > maxPrefix {
		plen = maxPrefix
	}
	n, err := t.pool.Alloc(nodeSize, pmem.LineSize)
	if err != nil {
		return 0, err
	}
	th.Store(n, packHeader(d, plen, prefixOf(key, d, plen)))
	if plen == cpl {
		// Divergence right after the prefix: branch both keys.
		th.Store(childOff(n, nibble(key, d+cpl)), newChild)
		th.Store(childOff(n, nibble(k2, d+cpl)), oldChild)
	} else {
		// Still-common branch nibble; the rest of the run continues
		// in a child node (built and persisted first).
		sub, err := t.buildSplit(th, d+plen+1, cpl-plen-1, key, newChild, k2, oldChild)
		if err != nil {
			return 0, err
		}
		th.Store(childOff(n, nibble(key, d+plen)), sub)
	}
	th.Flush(n, nodeSize)
	return uint64(n), nil
}

// splitPrefix splits node n (reached via parentSlot at depth d) whose prefix
// diverges from key at nibble j: a new parent covering prefix[0:j] branches
// to a new leaf and to n. The parent-slot store is the commit; n's header
// rewrite afterwards is the one step a crash can abandon, detectable via the
// stored depth and repaired lazily by readers and writers.
func (t *Tree) splitPrefix(th *pmem.Thread, n, parentSlot int64, d, plen int, prefix uint64, j int, key, val uint64) error {
	if parentSlot < 0 {
		return fmt.Errorf("wort: root node cannot have a prefix")
	}
	leaf, err := t.newLeaf(th, key, val)
	if err != nil {
		return err
	}
	p, err := t.pool.Alloc(nodeSize, pmem.LineSize)
	if err != nil {
		return err
	}
	th.Store(p, packHeader(d, j, prefix>>uint((plen-j)*4)))
	th.Store(childOff(p, nibble(key, d+j)), uint64(leaf)|leafTag)
	th.Store(childOff(p, prefixNibble(prefix, plen, j)), uint64(n))
	th.Flush(p, nodeSize)

	th.Store(parentSlot, uint64(p)) // commit
	th.Flush(parentSlot, 8)

	// Rewrite n's header: it now sits j+1 nibbles below its old depth.
	rem := plen - j - 1
	th.Store(n, packHeader(d+j+1, rem, prefix&(1<<uint(rem*4)-1)))
	th.Flush(n, 8)
	return nil
}

// Delete removes key: one atomic store clears the leaf slot. Interior nodes
// are not compacted (as in the WORT paper).
func (t *Tree) Delete(th *pmem.Thread, key uint64) bool {
	th.BeginPhase(pmem.PhaseSearch)
	defer th.EndPhase()
	n, d := t.root, 0
	for {
		plen, prefix := t.effHeader(th, n, d)
		for j := 0; j < plen; j++ {
			if nibble(key, d+j) != prefixNibble(prefix, plen, j) {
				return false
			}
		}
		d += plen
		slot := childOff(n, nibble(key, d))
		c := th.Load(slot)
		switch {
		case c == 0:
			return false
		case c&leafTag != 0:
			leaf := int64(c &^ leafTag)
			if th.Load(leaf) != key {
				return false
			}
			th.BeginPhase(pmem.PhaseUpdate)
			th.Store(slot, 0)
			th.Flush(slot, 8)
			return true
		default:
			n, d = int64(c), d+1
		}
	}
}

// Scan visits pairs with lo <= key <= hi in ascending key order via an
// in-order DFS — the access pattern that makes radix-tree range queries
// slow.
func (t *Tree) Scan(th *pmem.Thread, lo, hi uint64, fn func(key, val uint64) bool) {
	t.scanNode(th, t.root, 0, lo, hi, fn)
}

func (t *Tree) scanNode(th *pmem.Thread, n int64, d int, lo, hi uint64, fn func(key, val uint64) bool) bool {
	plen, _ := t.effHeader(th, n, d)
	d += plen
	for i := 0; i < fanout; i++ {
		c := th.Load(childOff(n, i))
		if c == 0 {
			continue
		}
		if c&leafTag != 0 {
			leaf := int64(c &^ leafTag)
			k := th.Load(leaf)
			if k >= lo && k <= hi {
				if !fn(k, th.Load(leaf+8)) {
					return false
				}
			}
			continue
		}
		if !t.scanNode(th, int64(c), d+1, lo, hi, fn) {
			return false
		}
	}
	return true
}

// Len counts the keys (test helper).
func (t *Tree) Len(th *pmem.Thread) int {
	c := 0
	t.Scan(th, 0, ^uint64(0), func(uint64, uint64) bool { c++; return true })
	return c
}

// CheckInvariants verifies structural sanity: every leaf is reachable along
// a path consistent with its key, and scan order is strictly ascending.
func (t *Tree) CheckInvariants(th *pmem.Thread) error {
	var prev uint64
	first := true
	bad := ""
	t.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
		if !first && k <= prev {
			bad = fmt.Sprintf("scan unsorted: %d after %d", k, prev)
			return false
		}
		prev, first = k, false
		if got, ok := t.Get(th, k); !ok || got != v {
			bad = fmt.Sprintf("key %d unreachable via Get (%d,%v)", k, got, ok)
			return false
		}
		return true
	})
	if bad != "" {
		return fmt.Errorf("wort: %s", bad)
	}
	return nil
}
