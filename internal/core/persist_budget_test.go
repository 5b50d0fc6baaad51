package core

import (
	"testing"

	"repro/internal/pmem"
)

// The tree's persist ledger, gated at equality beside the read ledger
// (read_budget_test.go, whose tree it shares): a FAST shift flushes each
// record line it writes exactly once, in shift order, and nothing else but
// the value box. Every flush call covers one line and carries one fence, so
// the three counters move together.

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
			th := tr.Pool().NewThread()
			n := tr.descendToLeaf(th, k)
			cnt := tr.count(th, n)
			if cnt >= tr.maxEntries {
				continue // would split
			}
			pos := 0
			for pos < cnt && tr.keyAt(th, n, pos) < k {
				pos++
			}
			// The new box, then the lines of slots pos..cnt: the shift
			// flushes each as it leaves it and the commit flushes pos's.
			want := 1 + linesOf(pos, cnt)
			// A stale pre-split pointer beyond the terminator is zeroed —
			// and flushed — before the terminator moves onto it.
			if cnt+1 < tr.slots && tr.ptrAt(th, n, cnt+1) != 0 {
				want++
				probes++
			}
			requirePersists(t, tr, want, "insert", func(th *pmem.Thread) { tr.Insert(th, k, 7) })
		}
		if probes == 0 {
			t.Fatal("no insert exercised the zero-beyond probe")
		}
	})
	t.Run("Remove", func(t *testing.T) {
		tr, keys := budgetTree(t)
		multi := 0
		for i := 0; i < len(keys); i += 3 {
			k := keys[i]
			cnt, pos := leafOf(tr, k)
			// The lines of slots pos..cnt-1 and nothing else: the commit
			// store rides on the flush of its line, which the shift (or
			// the terminator) owes anyway. No box: the old one is retired,
			// not written.
			want := linesOf(pos, cnt-1)
			if want > 1 {
				multi++
			}
			requirePersists(t, tr, want, "remove", func(th *pmem.Thread) {
				if _, ok := tr.Remove(th, k); !ok {
					t.Fatalf("Remove(%d): not found", k)
				}
			})
		}
		if multi == 0 {
			t.Fatal("no remove shifted across a line boundary")
		}
	})
}
