package core

import (
	"testing"

	"repro/internal/pmem"
)

// The tree's persist ledger, gated at equality beside the read ledger
// (read_budget_test.go, whose tree it shares): a delete is its commit store's
// line; an insert is the value box and the record lines of the cheapest way
// to a free slot — the nearest tombstone on either side or the terminator —
// each flushed exactly once, in shift order. Every flush call covers one line
// and carries one fence, so the three counters move together.

// linesOf counts the record lines slots lo..hi occupy.
func linesOf(lo, hi int) uint64 { return uint64(recordLine(hi) - recordLine(lo) + 1) }

// requirePersists fails unless op flushed exactly want lines, one per flush
// call and one per fence.
func requirePersists(t *testing.T, tr *BTree, want uint64, desc string, op func(th *pmem.Thread)) {
	t.Helper()
	st := statsBy(tr, op)
	if st.FlushedLines != want || st.FlushCalls != want || st.Fences != want {
		t.Fatalf("%s: %d flushed lines, %d flush calls, %d fences, want %d of each",
			desc, st.FlushedLines, st.FlushCalls, st.Fences, want)
	}
}

func TestPersistBudget(t *testing.T) {
	t.Run("Overwrite", func(t *testing.T) {
		tr, keys := budgetTree(t)
		for _, k := range keys {
			// The box's word, in place.
			requirePersists(t, tr, 1, "overwrite", func(th *pmem.Thread) { tr.Insert(th, k, 7) })
		}
	})
	t.Run("Insert", func(t *testing.T) {
		tr, keys := budgetTree(t)
		probes := 0
		for i := 0; i < len(keys); i += 7 {
			k := keys[i] + 3
			sh := shapeOf(tr, k)
			if sh.cnt >= tr.maxEntries {
				continue // would split
			}
			// No tombstones: the new box, then the lines of slots pos..cnt.
			// The shift flushes each as it leaves it and the commit
			// flushes pos's.
			want := 1 + linesOf(sh.pos, sh.cnt)
			// A stale pre-split pointer beyond the terminator is zeroed —
			// and flushed — before the terminator moves onto it.
			if sh.staleBeyond {
				want++
				probes++
			}
			requirePersists(t, tr, want, "insert", func(th *pmem.Thread) { tr.Insert(th, k, 7) })
		}
		if probes == 0 {
			t.Fatal("no insert exercised the zero-beyond probe")
		}

		// The sub-cases below each prepare one leaf by deleting chosen keys,
		// check that the leaf has the shape they mean to measure, and gate
		// the insert at 1 (the box) + that shape's lines. lk are the leaf's
		// keys by slot: multiples of 10, so lk[i]+3 sorts between slots i
		// and i+1.
		for _, tc := range []struct {
			name string
			dead []int // slots to tombstone first
			key  func(lk []uint64) uint64
			want func(sh leafShape) uint64
		}{
			{"OwnStaleSlot", []int{5},
				func(lk []uint64) uint64 { return lk[5] },
				func(sh leafShape) uint64 {
					if sh.left != 5 || sh.pos != 6 {
						return 0
					}
					return 1 + 1
				}},
			{"HoleBelow", []int{5},
				func(lk []uint64) uint64 { return lk[5] + 3 },
				func(sh leafShape) uint64 {
					if sh.left != sh.pos-1 {
						return 0
					}
					return 1 + 1
				}},
			{"HoleAbove", []int{5},
				func(lk []uint64) uint64 { return lk[5] - 3 },
				func(sh leafShape) uint64 {
					if sh.right != sh.pos {
						return 0
					}
					return 1 + 1
				}},
			{"HoleBothSides", []int{5, 6},
				func(lk []uint64) uint64 { return lk[5] + 3 },
				func(sh leafShape) uint64 {
					if sh.left != 5 || sh.right != 6 || sh.pos != 6 {
						return 0
					}
					return 1 + 1
				}},
			{"HoleLinesToTheRight", []int{10},
				func(lk []uint64) uint64 { return lk[0] + 3 },
				func(sh leafShape) uint64 {
					if sh.left >= 0 || sh.pos != 1 || sh.right != 10 || linesOf(1, 10) != 3 {
						return 0
					}
					return 1 + linesOf(sh.pos, sh.right)
				}},
			{"HoleLinesToTheLeft", []int{2},
				func(lk []uint64) uint64 { return lk[7] + 3 },
				func(sh leafShape) uint64 {
					// Two lines either way: a tombstone wins the tie.
					if sh.right >= 0 || sh.left != 2 || sh.pos != 8 || linesOf(2, 7) != 2 ||
						linesOf(sh.pos, sh.cnt) != 2 {
						return 0
					}
					return 1 + linesOf(sh.left, sh.pos-1)
				}},
			{"TailCheaperThanAnyHole", []int{0},
				func(lk []uint64) uint64 { return lk[len(lk)-1] + 3 },
				func(sh leafShape) uint64 {
					if sh.right >= 0 || sh.left != 0 || sh.pos != sh.cnt ||
						linesOf(sh.left, sh.pos-1) <= linesOf(sh.pos, sh.cnt) {
						return 0
					}
					// The formula of a leaf without tombstones.
					want := 1 + linesOf(sh.pos, sh.cnt)
					if sh.staleBeyond {
						want++
					}
					return want
				}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				tr, keys := budgetTree(t)
				th := tr.Pool().NewThread()
				n := tr.descendToLeaf(th, keys[700])
				lk := leafKeys(tr, n)
				if len(lk) < 13 || len(lk) >= tr.maxEntries-1 {
					t.Fatalf("leaf of %d entries", len(lk))
				}
				for _, slot := range tc.dead {
					if !tr.Delete(th, lk[slot]) {
						t.Fatalf("Delete(%d) missed", lk[slot])
					}
				}
				k := tc.key(lk)
				want := tc.want(shapeOf(tr, k))
				if want == 0 {
					t.Fatalf("leaf is not in the shape this case measures: %+v", shapeOf(tr, k))
				}
				nodes := countNodes(tr, th)
				requirePersists(t, tr, want, "insert", func(th *pmem.Thread) { tr.Insert(th, k, 7) })
				if got := len(leafKeys(tr, n)); got != len(lk) && tc.name != "TailCheaperThanAnyHole" {
					t.Fatalf("the insert moved the terminator: %d slots in use, was %d", got, len(lk))
				}
				if got := countNodes(tr, th); got != nodes {
					t.Fatalf("the insert allocated %d nodes", got-nodes)
				}
				if v, ok := tr.Get(th, k); !ok || v != 7 {
					t.Fatalf("Get(%d) = %d,%v after the insert", k, v, ok)
				}
				if err := tr.CheckInvariants(th); err != nil {
					t.Fatal(err)
				}
			})
		}

		// A full leaf that holds a tombstone takes an insert without a
		// split: no node is allocated, and the cost is the hole's.
		t.Run("FullLeafWithTombstone", func(t *testing.T) {
			tr, keys := budgetTree(t)
			th := tr.Pool().NewThread()
			n := tr.descendToLeaf(th, keys[700])
			lk := leafKeys(tr, n)
			nodes := countNodes(tr, th)
			for i := 0; len(leafKeys(tr, n)) < tr.maxEntries; i++ {
				if err := tr.Insert(th, lk[i%len(lk)]+1+uint64(i/len(lk)), 1); err != nil {
					t.Fatal(err)
				}
			}
			if countNodes(tr, th) != nodes {
				t.Fatal("filling the leaf split it")
			}
			full := leafKeys(tr, n)
			if !tr.Delete(th, full[20]) {
				t.Fatal("Delete missed")
			}
			k := full[3] + 5
			sh := shapeOf(tr, k)
			if sh.cnt != tr.maxEntries || sh.right != 20 || sh.left >= 0 || linesOf(sh.pos, sh.right) < 3 {
				t.Fatalf("leaf is not full with one tombstone to the right: %+v", sh)
			}
			requirePersists(t, tr, 1+linesOf(sh.pos, sh.right), "insert into a full leaf", func(th *pmem.Thread) { tr.Insert(th, k, 7) })
			if got := countNodes(tr, th); got != nodes {
				t.Fatalf("the insert allocated %d nodes: a leaf with a tombstone must not split", got-nodes)
			}
			// Now it is full of live entries, and the next insert splits.
			if err := tr.Insert(th, k+1, 7); err != nil {
				t.Fatal(err)
			}
			if got := countNodes(tr, th); got != nodes+1 {
				t.Fatalf("insert into a full leaf without tombstones allocated %d nodes, want 1", got-nodes)
			}
			if err := tr.CheckInvariants(th); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("Remove", func(t *testing.T) {
		tr, keys := budgetTree(t)
		for i := 0; i < len(keys); i += 3 {
			k := keys[i]
			// The commit store's line and nothing else, wherever the key
			// sits. No box: the old one is retired, not written.
			requirePersists(t, tr, 1, "remove", func(th *pmem.Thread) {
				if _, ok := tr.Remove(th, k); !ok {
					t.Fatalf("Remove(%d): not found", k)
				}
			})
		}
	})
}

// leafShape is the test's own reading of what an insert of a key will find
// in its leaf, slot by slot: the model insertIntoLeaf's choice is checked
// against.
type leafShape struct {
	cnt, pos    int
	left, right int  // nearest tombstone below pos / at or above it, -1 if none
	staleBeyond bool // a non-zero pointer in the slot after the terminator
}

func shapeOf(tr *BTree, key uint64) leafShape {
	th := tr.Pool().NewThread()
	n := tr.descendToLeaf(th, key)
	sh := leafShape{left: -1, right: -1}
	for ; sh.cnt < tr.slots && tr.ptrAt(th, n, sh.cnt) != 0; sh.cnt++ {
		i, tomb := sh.cnt, tr.ptrAt(th, n, sh.cnt)&1 != 0
		switch {
		case tr.keyAt(th, n, i) <= key:
			sh.pos = i + 1
			if tomb {
				sh.left = i
			}
		case tomb && sh.right < 0:
			sh.right = i
		}
	}
	sh.staleBeyond = sh.cnt+1 < tr.slots && tr.ptrAt(th, n, sh.cnt+1) != 0
	return sh
}

// leafKeys returns the keys of the leaf's slots in use, stale ones included.
func leafKeys(tr *BTree, n node) []uint64 {
	th := tr.Pool().NewThread()
	var ks []uint64
	for i := 0; i < tr.slots && tr.ptrAt(th, n, i) != 0; i++ {
		ks = append(ks, tr.keyAt(th, n, i))
	}
	return ks
}

func countNodes(tr *BTree, th *pmem.Thread) int {
	c := 0
	tr.Nodes(th, func(int64) { c++ })
	return c
}
