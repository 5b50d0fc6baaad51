package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// The high key's crash matrices. A crash can leave a node "linked, high key
// still the old, larger one" (between splitBody's two header stores) or
// "high key raised, link still the old one" (inside Vacuum's unlink). Both
// must read correctly as they are, and — this is what the suites here add to
// crash_test.go — must take writes as they are: without a Recover, through
// the lazy path alone, a write has to land in the node readers will look in.

// verifyLazyImage opens img without recovering it and requires that every
// committed key reads back, that the fresh keys can be inserted and the
// doomed ones deleted through the lazy repair path with every read agreeing
// at once, and that Recover then finds a tree it can bring to full
// invariants without losing any of it. The key the taped operation was
// writing may or may not be there; it is in none of the lists.
func verifyLazyImage(t *testing.T, img *pmem.Pool, opts Options,
	committed map[uint64]uint64, fresh, doomed []uint64, tag string) {
	t.Helper()
	th := img.NewThread()
	tr, err := Open(img, th, opts)
	if err != nil {
		t.Fatalf("%s: Open: %v", tag, err)
	}
	want := make(map[uint64]uint64, len(committed)+len(fresh))
	for k, v := range committed {
		want[k] = v
	}
	check := func(stage string) {
		t.Helper()
		for k, v := range want {
			if got, ok := tr.Get(th, k); !ok || got != v {
				t.Fatalf("%s: %s Get(%d) = %d,%v want %d,true", tag, stage, k, got, ok, v)
			}
		}
		for _, k := range doomed {
			if _, still := want[k]; still {
				continue // not deleted yet
			}
			if got, ok := tr.Get(th, k); ok {
				t.Fatalf("%s: %s Get(%d) = %d: deleted key is back", tag, stage, k, got)
			}
		}
		last, n := uint64(0), 0
		tr.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
			if n > 0 && k <= last {
				t.Errorf("%s: %s Scan out of order: %d after %d", tag, stage, k, last)
			}
			if w, ok := want[k]; ok {
				if v != w {
					t.Errorf("%s: %s Scan(%d) = %d want %d", tag, stage, k, v, w)
				}
				n++
			}
			last = k
			return true
		})
		if n != len(want) {
			t.Fatalf("%s: %s Scan reported %d of %d keys", tag, stage, n, len(want))
		}
	}
	check("unrecovered")
	for _, k := range fresh {
		if err := tr.Insert(th, k, k^0x5555); err != nil {
			t.Fatalf("%s: lazy Insert(%d): %v", tag, k, err)
		}
		want[k] = k ^ 0x5555
		if got, ok := tr.Get(th, k); !ok || got != want[k] {
			t.Fatalf("%s: Get(%d) = %d,%v right after its lazy insert", tag, k, got, ok)
		}
	}
	for _, k := range doomed {
		if !tr.Delete(th, k) {
			t.Fatalf("%s: lazy Delete(%d) missed a committed key", tag, k)
		}
		delete(want, k)
	}
	check("after lazy writes")
	if err := tr.Recover(th); err != nil {
		t.Fatalf("%s: Recover: %v", tag, err)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatalf("%s: after Recover: %v", tag, err)
	}
	check("recovered")
}

// trackedTree creates an empty tree on a crash-tracking pool.
func trackedTree(t *testing.T, model pmem.MemModel, opts Options) (*pmem.Pool, *pmem.Thread, *BTree) {
	t.Helper()
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, th, tr
}

// lazyMatrix runs verifyLazyImage at every persist point of the taped
// operation, under every crash mode.
func lazyMatrix(t *testing.T, p *pmem.Pool, opts Options,
	committed map[uint64]uint64, fresh, doomed []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	for point := 0; point <= p.LogLen(); point++ {
		for _, mode := range []pmem.CrashMode{pmem.CrashNone, pmem.CrashAll, pmem.CrashRandom} {
			verifyLazyImage(t, p.CrashImage(point, mode, rng), opts, committed, fresh, doomed,
				fmt.Sprintf("point=%d mode=%d", point, mode))
			if t.Failed() {
				return
			}
		}
	}
}

// TestLazyRepairFixesHighKeyBeforeMoveRight crashes a leaf split and an
// internal split at every persist point and writes into the unrecovered
// image. At the cut between the link and the high-key store the left node
// still claims the upper half; a writer that tested move-right before
// repairing would keep the latch there, redo the truncation, and insert a
// key of the upper half into the node that had just given it up — where no
// reader looks for it any more.
func TestLazyRepairFixesHighKeyBeforeMoveRight(t *testing.T) {
	t.Run("LeafSplit", func(t *testing.T) {
		forBothModels(t, func(t *testing.T, model pmem.MemModel) {
			opts := Options{NodeSize: 256} // 11 entries per leaf
			p, th, tr := trackedTree(t, model, opts)
			committed := map[uint64]uint64{}
			for i := uint64(0); i < 11; i++ { // fill the root leaf: 100..200
				k := 100 + i*10
				if err := tr.Insert(th, k, k*3); err != nil {
					t.Fatal(err)
				}
				committed[k] = k * 3
			}
			p.StartCrashLog()
			if err := tr.Insert(th, 145, 999); err != nil { // splits at 150
				t.Fatal(err)
			}
			// Upper half first: that is the insert the stale high key misleads.
			lazyMatrix(t, p, opts, committed, []uint64{155, 205, 165, 105, 149}, []uint64{190, 110})
		})
	})
	// The same split on a leaf that already has a sibling: were the high
	// key lowered before the link, the cut between the two stores would send
	// the upper half's readers past the new sibling to the old one.
	t.Run("LeafSplitWithSibling", func(t *testing.T) {
		forBothModels(t, func(t *testing.T, model pmem.MemModel) {
			opts := Options{NodeSize: 256}
			p, th, tr := trackedTree(t, model, opts)
			committed := map[uint64]uint64{}
			put := func(k uint64) {
				if err := tr.Insert(th, k, k*3); err != nil {
					t.Fatal(err)
				}
				committed[k] = k * 3
			}
			for i := uint64(0); i < 30; i++ { // ascending: the leftmost leaf keeps 100..140
				put(100 + i*10)
			}
			for k := uint64(101); k <= 106; k++ { // fill it up
				put(k)
			}
			head := tr.levelHeads(th)[0]
			if tr.count(th, head) != tr.maxEntries || !tr.sibling(th, head).valid() {
				t.Fatalf("leftmost leaf: %d entries, sibling %v", tr.count(th, head), tr.sibling(th, head))
			}
			p.StartCrashLog()
			if err := tr.Insert(th, 107, 999); err != nil { // splits it at 105
				t.Fatal(err)
			}
			if tr.sibling(th, head).off == tr.levelHeads(th)[0].off || tr.highKey(th, head) != 105 {
				t.Fatalf("the insert did not split the leftmost leaf (high key %d)", tr.highKey(th, head))
			}
			lazyMatrix(t, p, opts, committed, []uint64{108, 125, 135, 99, 145}, []uint64{130, 103})
		})
	})
	t.Run("InternalSplit", func(t *testing.T) {
		forBothModels(t, func(t *testing.T, model pmem.MemModel) {
			opts := Options{NodeSize: 128} // 3 entries per node: splits cascade
			p, th, tr := trackedTree(t, model, opts)
			committed := map[uint64]uint64{}
			for i := uint64(0); i < 30; i++ {
				k := i * 10
				if err := tr.Insert(th, k, k+1); err != nil {
					t.Fatal(err)
				}
				committed[k] = k + 1
			}
			if tr.Height(th) < 3 {
				t.Fatalf("setup did not build 3 levels (height %d)", tr.Height(th))
			}
			p.StartCrashLog()
			if err := tr.Insert(th, 301, 42); err != nil { // splits the rightmost spine
				t.Fatal(err)
			}
			// Enough inserts under the split spine that their own leaf splits
			// send separators up through the crashed internal nodes.
			var fresh []uint64
			for i := uint64(29); i > 14; i-- {
				fresh = append(fresh, i*10+5, i*10+7)
			}
			lazyMatrix(t, p, opts, committed, fresh, []uint64{290, 200, 10})
		})
	})
}

// TestCrashVacuumEveryPoint cuts an offline merge pass at every persist
// point. The unlink raises the left leaf's high key before it stores the
// new sibling pointer, so the one half-done state — fence raised, link old
// — keeps every key of the absorbed range in the left leaf, where the merge
// copied it; lazy writes and Recover both pull the fence back down.
func TestCrashVacuumEveryPoint(t *testing.T) {
	forBothModels(t, func(t *testing.T, model pmem.MemModel) {
		opts := Options{NodeSize: 256}
		p, th, tr := trackedTree(t, model, opts)
		committed := map[uint64]uint64{}
		for i := uint64(0); i < 48; i++ {
			if err := tr.Insert(th, i*4, i+7); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 48; i++ {
			if i%6 != 0 {
				tr.Delete(th, i*4)
			} else {
				committed[i*4] = i + 7
			}
		}
		leaves := func() (n int) {
			for l := tr.levelHeads(th)[0]; l.valid(); l = tr.sibling(th, l) {
				n++
			}
			return n
		}
		before := leaves()
		// The deletes left tombstones, some leaves nothing else: the tape
		// begins with their compaction, and every cut of that is a crashed
		// left shift.
		if tombs, deadLeaves := tombstoneCensus(tr, th); tombs != 40 || deadLeaves == 0 {
			t.Fatalf("before Vacuum: %d tombstones (want 40), %d leaves of nothing else (want some)", tombs, deadLeaves)
		}
		p.StartCrashLog()
		if err := tr.Vacuum(th); err != nil {
			t.Fatal(err)
		}
		if after := leaves(); after >= before {
			t.Fatalf("Vacuum merged nothing (%d leaves before, %d after)", before, after)
		}
		if tombs, _ := tombstoneCensus(tr, th); tombs != 0 {
			t.Fatalf("Vacuum left %d tombstones", tombs)
		}
		if err := tr.CheckInvariants(th); err != nil {
			t.Fatal(err)
		}
		// Fresh keys between the survivors: every absorbed range gets one.
		var fresh []uint64
		for i := uint64(0); i < 48; i += 3 {
			fresh = append(fresh, i*4+1)
		}
		lazyMatrix(t, p, opts, committed, fresh, []uint64{24, 168})
	})
}

// TestCheckInvariantsRequiresHighKeys: on a consistent tree every node's
// high key is its sibling's low fence, or ^0 at the right edge; one word off
// is corruption.
func TestCheckInvariantsRequiresHighKeys(t *testing.T) {
	tr, th := newTestTree(t, Options{NodeSize: 128})
	for k := uint64(0); k < 200; k++ {
		if err := tr.Insert(th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	var nodes []node
	tr.Nodes(th, func(off int64) { nodes = append(nodes, node{off}) })
	if len(nodes) < 50 || tr.Height(th) < 3 {
		t.Fatalf("tree too small: %d nodes, height %d", len(nodes), tr.Height(th))
	}
	for _, n := range nodes {
		want := noHighKey
		if sib := tr.sibling(th, n); sib.valid() {
			want = tr.lowKey(th, sib)
		}
		if got := tr.highKey(th, n); got != want {
			t.Fatalf("node %d: high key %d, want %d", n.off, got, want)
		}
	}
	for _, n := range []node{nodes[0], nodes[len(nodes)/2], nodes[len(nodes)-1]} {
		good := tr.highKey(th, n)
		th.Store(n.off+offHighKey, good-1)
		if err := tr.CheckInvariants(th); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("node %d with high key %d for %d: CheckInvariants = %v", n.off, good-1, good, err)
		}
		th.Store(n.off+offHighKey, good)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatal(err)
	}
}
