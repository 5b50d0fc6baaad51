package core

import (
	"testing"
	"time"

	"repro/internal/pmem"
)

// The tree's read ledger, gated at equality. pmem charges one PM read per
// serial line access: a line that is neither the last one touched, nor the
// one after it, nor resident in the thread's line cache. On a cold cache a
// descent therefore costs the root slot's line, one charged read per level —
// the node's header; its record lines follow the header one after the other
// and ride along — and nothing else: the move-right test reads two words of
// that same header. A descent that peeked at the sibling's low key instead
// paid for the sibling's header on every level, and again for the first
// record line it came back to.

const budgetHeight = 3

// rootSlotRead is the read of the pool's first line, which holds the root
// slot every descent starts from: a cold thread pays it once.
const rootSlotRead = 1

// budgetTree builds a three-level boxed tree on a 300 ns device: keys
// 10, 20, ... ascending, so every leaf but the last is half full and every
// node but the last of its level has a sibling.
func budgetTree(t *testing.T) (*BTree, []uint64) {
	t.Helper()
	p := pmem.New(pmem.Config{Size: 16 << 20, ReadLatency: 300 * time.Nanosecond})
	th := p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(i+1) * 10
		if err := tr.Insert(th, keys[i], keys[i]+1); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.Height(th); h != budgetHeight {
		t.Fatalf("height %d, want %d", h, budgetHeight)
	}
	return tr, keys
}

// statsBy runs op on a fresh thread — cold line cache, zeroed counters — and
// returns what the simulator charged it.
func statsBy(tr *BTree, op func(th *pmem.Thread)) pmem.Stats {
	th := tr.Pool().NewThread()
	defer th.Release()
	op(th)
	return th.Stats
}

// chargedBy returns the PM reads op is charged on a cold line cache.
func chargedBy(tr *BTree, op func(th *pmem.Thread)) uint64 {
	return statsBy(tr, op).ChargedReads
}

// leafOf locates key's leaf, the leaf's entry count and key's slot (-1 when
// absent) without disturbing the measured thread.
func leafOf(tr *BTree, key uint64) (cnt, pos int) {
	th := tr.Pool().NewThread()
	n := tr.descendToLeaf(th, key)
	return tr.count(th, n), tr.probeLeafLocked(th, n, key).at
}

// recordLine is the index of the record line holding slot i.
func recordLine(i int) int { return i / slotsPerLine }

func TestReadBudget(t *testing.T) {
	t.Run("Get", func(t *testing.T) {
		tr, keys := budgetTree(t)
		for _, k := range keys {
			// The root slot, one header per level, and the box.
			if got := chargedBy(tr, func(th *pmem.Thread) { tr.Get(th, k) }); got != rootSlotRead+budgetHeight+1 {
				t.Fatalf("Get(%d) charged %d reads, want root+height+1 = %d", k, got, rootSlotRead+budgetHeight+1)
			}
			// An absent key stops at the leaf: the not-found chase re-reads
			// the header it already has.
			if got := chargedBy(tr, func(th *pmem.Thread) { tr.Get(th, k+5) }); got != rootSlotRead+budgetHeight {
				t.Fatalf("Get(%d) of an absent key charged %d reads, want root+height = %d", k+5, got, rootSlotRead+budgetHeight)
			}
		}
	})
	t.Run("GetBatch", func(t *testing.T) {
		tr, keys := budgetTree(t)
		batch := func(ks ...uint64) func(th *pmem.Thread) {
			return func(th *pmem.Thread) {
				ls := make([]Lookup, len(ks))
				for i, k := range ks {
					ls[i] = Lookup{Tree: tr, Th: th, Key: k}
				}
				GetBatch(ls)
			}
		}
		for _, k := range keys {
			// One key is Get's own descent and leaf read.
			if got := chargedBy(tr, batch(k)); got != rootSlotRead+budgetHeight+1 {
				t.Fatalf("GetBatch(%d) charged %d reads, want root+height+1 = %d", k, got, rootSlotRead+budgetHeight+1)
			}
			if got := chargedBy(tr, batch(k+5)); got != rootSlotRead+budgetHeight {
				t.Fatalf("GetBatch(%d) of an absent key charged %d reads, want root+height = %d", k+5, got, rootSlotRead+budgetHeight)
			}
		}
		// Interleaving the descents costs no read a lone Get does not pay:
		// n keys charge at most n cold Gets, present or absent.
		for _, n := range []int{2, 8, 32} {
			for start := 0; start+n <= len(keys); start += 97 {
				ks := make([]uint64, n)
				for i := range ks {
					ks[i] = keys[(start+i*61)%len(keys)] + uint64(i%2)*5
				}
				var single uint64
				for _, k := range ks {
					single += chargedBy(tr, func(th *pmem.Thread) { tr.Get(th, k) })
				}
				if got := chargedBy(tr, batch(ks...)); got > single {
					t.Fatalf("GetBatch of %d keys from %d charged %d reads, %d single Gets charge %d", n, ks[0], got, n, single)
				}
			}
		}
	})
	t.Run("Scan", func(t *testing.T) {
		tr, keys := budgetTree(t)
		// A cold range scan is charged the root slot (rootSlotRead, not in
		// the table), the descent's inner headers, one header per leaf, and one read per box line it comes to out of
		// sequence (the ascending inserts laid the boxes out in key order,
		// 8 to a line, between the nodes). Scan's box hints are no reads:
		// both counts stay where they were before Scan hinted anything.
		for _, c := range []struct {
			from, to       int
			charged, loads uint64
		}{
			{37, 38, 4, 105},
			{0, 100, 17, 684},
			{500, 700, 34, 1358},
			{1000, 1999, 157, 6414},
			{0, 1999, 308, 12636},
		} {
			pairs := 0
			st := statsBy(tr, func(th *pmem.Thread) {
				tr.Scan(th, keys[c.from], keys[c.to], func(k, v uint64) bool {
					if v != k+1 {
						t.Fatalf("Scan handed %d -> %d, want %d", k, v, k+1)
					}
					pairs++
					return true
				})
			})
			if pairs != c.to-c.from+1 || st.ChargedReads != rootSlotRead+c.charged || st.Loads != c.loads {
				t.Fatalf("Scan of keys %d..%d: %d pairs, %d charged reads, %d loads; want %d, %d, %d",
					c.from, c.to, pairs, st.ChargedReads, st.Loads, c.to-c.from+1, rootSlotRead+c.charged, c.loads)
			}
		}
	})
	t.Run("Overwrite", func(t *testing.T) {
		tr, keys := budgetTree(t)
		for _, k := range keys {
			// The box is stored to, never loaded.
			if got := chargedBy(tr, func(th *pmem.Thread) { tr.Insert(th, k, 7) }); got != rootSlotRead+budgetHeight {
				t.Fatalf("overwrite of %d charged %d reads, want root+height = %d", k, got, rootSlotRead+budgetHeight)
			}
		}
	})
	t.Run("Insert", func(t *testing.T) {
		tr, keys := budgetTree(t)
		for i := 0; i < len(keys); i += 7 {
			k := keys[i] + 3
			cnt, _ := leafOf(tr, k)
			if cnt >= tr.maxEntries {
				continue // would split
			}
			// The latched search walks the record lines up to the
			// terminator's, and the shift stays on them. One word lies
			// beyond: the slot after the terminator, probed for a stale
			// pre-split pointer before the terminator moves onto it. It
			// costs a read when it starts a line of its own.
			want := uint64(rootSlotRead + budgetHeight)
			if cnt+1 < tr.slots && recordLine(cnt+1) != recordLine(cnt) {
				want++
			}
			if got := chargedBy(tr, func(th *pmem.Thread) { tr.Insert(th, k, 7) }); got != want {
				t.Fatalf("Insert(%d) into a leaf of %d charged %d reads, want %d", k, cnt, got, want)
			}
		}
	})
	t.Run("Remove", func(t *testing.T) {
		tr, keys := budgetTree(t)
		for i := 0; i < len(keys); i += 3 {
			k := keys[i]
			cnt, pos := leafOf(tr, k)
			// The descent and the box (Remove returns the old value), wherever
			// the key sits: the latched search stops at the key's line, the
			// count walks on from there to the terminator and the shift
			// follows it, line after line.
			const want = rootSlotRead + budgetHeight + 1
			var ok bool
			if got := chargedBy(tr, func(th *pmem.Thread) { _, ok = tr.Remove(th, k) }); got != want || !ok {
				t.Fatalf("Remove(%d) at slot %d of %d charged %d reads (found %v), want %d", k, pos, cnt, got, ok, want)
			}
		}
	})
	t.Run("Delete", func(t *testing.T) {
		tr, keys := budgetTree(t)
		for i := 0; i < len(keys); i += 3 {
			k := keys[i]
			cnt, pos := leafOf(tr, k)
			// Remove's walk without its box: Delete never reads the box it
			// discards, one read fewer at every slot.
			const want = rootSlotRead + budgetHeight
			var ok bool
			if got := chargedBy(tr, func(th *pmem.Thread) { ok = tr.Delete(th, k) }); got != want || !ok {
				t.Fatalf("Delete(%d) at slot %d of %d charged %d reads (found %v), want %d", k, pos, cnt, got, ok, want)
			}
		}
	})
}

// TestRouteStopsAtFirstLargerKey: the insert-direction search reads record
// lines up to the first entry whose key exceeds the search key, not up to
// the terminator, when it routes and when it looks a key up. Counted in word
// loads on a quiescent root and a quiescent leaf: the switch counter and the
// leftmost word, the record lines, the candidate's 4-word bracket and the
// closing switch-counter load.
func TestRouteStopsAtFirstLargerKey(t *testing.T) {
	p := pmem.New(pmem.Config{Size: 16 << 20})
	th := p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	root := tr.root(th)
	for k := uint64(10); tr.level(th, root) == 0 || tr.count(th, root) < 20; k += 10 {
		if err := tr.Insert(th, k, k+1); err != nil {
			t.Fatal(err)
		}
		root = tr.root(th)
	}
	if h := tr.Height(th); h != 2 {
		t.Fatalf("height %d, want 2", h)
	}
	cnt := tr.count(th, root)
	loadsOf := func(key uint64) (child uint64, loads uint64) {
		before := th.Stats.Loads
		child = tr.routeChild(th, root, key)
		return child, th.Stats.Loads - before
	}
	const fixed = 2 + 4 + 1
	for i := 0; i < slotsPerLine-1; i++ {
		// Separator i+1, the stop, shares the first record line.
		key := tr.keyAt(th, root, i)
		child, loads := loadsOf(key)
		if want := tr.ptrAt(th, root, i); child != want {
			t.Fatalf("routeChild(%d) = %d, want separator %d's child %d", key, child, i, want)
		}
		if want := uint64(fixed + pmem.WordsPerLine); loads != want {
			t.Errorf("routing %d (separator %d of %d) loaded %d words, want %d: one record line",
				key, i, cnt, loads, want)
		}
	}
	// Past the last separator nothing is larger: the scan reads on to the
	// terminator's line.
	key := tr.keyAt(th, root, cnt-1) + 1
	child, loads := loadsOf(key)
	if want := tr.ptrAt(th, root, cnt-1); child != want {
		t.Fatalf("routeChild(%d) = %d, want the last child %d", key, child, want)
	}
	if want := uint64(fixed + (recordLine(cnt)+1)*pmem.WordsPerLine); loads != want {
		t.Errorf("routing past the last of %d separators loaded %d words, want %d: every line to the terminator's",
			cnt, loads, want)
	}

	leaf := tr.descendToLeaf(th, 0)
	lcnt := tr.count(th, leaf)
	if recordLine(lcnt) == 0 {
		t.Fatalf("first leaf holds %d keys: its terminator shares the first record line", lcnt)
	}
	findLoads := func(key uint64) (found bool, loads uint64) {
		before := th.Stats.Loads
		_, found = tr.leafFind(th, leaf, key)
		return found, th.Stats.Loads - before
	}
	for i := 0; i < slotsPerLine-1; i++ {
		// A present key reads up to its own line; an absent one up to the
		// first larger key, which shares the first record line.
		key := tr.keyAt(th, leaf, i)
		for _, c := range []struct {
			key     uint64
			present bool
		}{{key, true}, {key + 1, false}} {
			found, loads := findLoads(c.key)
			if found != c.present {
				t.Fatalf("leafFind(%d) found %v, want %v", c.key, found, c.present)
			}
			if want := uint64(fixed + pmem.WordsPerLine); loads != want {
				t.Errorf("looking up %d (after slot %d of %d) loaded %d words, want %d: one record line",
					c.key, i, lcnt, loads, want)
			}
		}
	}
	// Under an odd counter, as a left shift leaves it, the search walks to
	// the terminator and back, right to left, and stops at the first
	// confirmed entry at or below the key: switch counter, both walks, the
	// bracket and the closing load.
	tr.setDirection(th, leaf, 1)
	for _, i := range []int{0, slotsPerLine - 1, slotsPerLine, lcnt - 1} {
		key := tr.keyAt(th, leaf, i) + 1
		found, loads := findLoads(key)
		if found {
			t.Fatalf("leafFind(%d) found an absent key", key)
		}
		back := recordLine(lcnt-1) - recordLine(i) + 1
		if want := uint64(2 + 4 + (recordLine(lcnt)+1+back)*pmem.WordsPerLine); loads != want {
			t.Errorf("looking up %d (after slot %d of %d) on an odd leaf loaded %d words, want %d: %d lines back",
				key, i, lcnt, loads, want, back)
		}
	}
}
