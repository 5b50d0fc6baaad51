package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// Every-persist-point matrices for the store sequences tombstones brought:
// the lazy delete, and the inserts that take a tombstoned slot back — in
// place, by a right shift that ends in it, by a left shift that starts from
// it. Each runs under TSO and NonTSO, every crash mode, with
// verifyCrashImage's four checks, and once more with the taped insert landing
// in a recycled box. One assertion is new: a key deleted before the tape
// started is absent at every point, before and after Recover. A dead slot's
// validity hangs on its own pointer word, never on a neighbour's, and the
// shifts pass right through its neighbours.

// holeCase is one taped operation on a one-leaf tree of keys 100, 110, ...
type holeCase struct {
	name string
	keys int   // entries in the leaf before anything is deleted
	dead []int // slots tombstoned before the tape, by index into the keys
	// key picks the taped operation's key from the leaf's keys by slot.
	key func(lk []uint64) uint64
	del bool // the taped operation is a delete, not an insert
	// shape says whether the leaf, as the taped insert will probe it, is in
	// the state the case is about.
	shape func(sh leafShape) bool
	// parity is the switch counter's after the operation; -1 for "as it was".
	parity int
}

// holeTree builds the case's leaf on a tracked pool. With recycled set it
// first toggles a scratch key — left in the tree at the end, beyond every
// other key, so that its tombstone does not join the case's — until the free
// list holds boxes that carry another key's old values.
func holeTree(t *testing.T, model pmem.MemModel, tc holeCase, recycled bool) (
	p *pmem.Pool, th *pmem.Thread, tr *BTree, committed map[uint64]uint64, gone []uint64, lk []uint64) {
	t.Helper()
	committed, order := buildSetup(tc.keys, 10, 100)
	p = pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
	th = p.NewThread()
	tr, err := New(p, th, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range order {
		if err := tr.Insert(th, k, committed[k]); err != nil {
			t.Fatal(err)
		}
	}
	if recycled {
		const scratch = 100000
		for i := uint64(0); i < 400; i++ {
			tr.Delete(th, scratch)
			if err := tr.Insert(th, scratch, 0xdead0000+i); err != nil {
				t.Fatal(err)
			}
		}
		committed[scratch] = 0xdead0000 + 399
		if p.TotalStats().RecycledBlocks == 0 {
			t.Fatal("churn recycled no box")
		}
	}
	if tr.Height(th) != 1 {
		t.Fatalf("%d keys do not fit one leaf", tc.keys)
	}
	lk = leafKeys(tr, tr.root(th))
	for _, slot := range tc.dead {
		if !tr.Delete(th, lk[slot]) {
			t.Fatalf("Delete(%d) missed", lk[slot])
		}
		delete(committed, lk[slot])
		gone = append(gone, lk[slot])
	}
	return p, th, tr, committed, gone, lk
}

// requireGone fails if any of the keys can be read from the image.
func requireGone(t *testing.T, img *pmem.Pool, gone []uint64, tag string) {
	t.Helper()
	th := img.NewThread()
	tr, err := Open(img, th, Options{})
	if err != nil {
		t.Fatalf("%s: Open: %v", tag, err)
	}
	dead := make(map[uint64]bool, len(gone))
	for _, k := range gone {
		dead[k] = true
		if v, ok := tr.Get(th, k); ok {
			t.Fatalf("%s: Get(%d) = %d: a key deleted before the tape is back", tag, k, v)
		}
	}
	tr.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
		if dead[k] {
			t.Errorf("%s: Scan returned (%d, %d): a key deleted before the tape is back", tag, k, v)
		}
		return true
	})
}

func runHoleCase(t *testing.T, tc holeCase) {
	for _, recycled := range []bool{false, true} {
		if recycled && tc.del {
			continue // a delete allocates nothing
		}
		name := "FreshBox"
		if recycled {
			name = "RecycledBox"
		}
		if tc.del {
			name = "Delete"
		}
		t.Run(name, func(t *testing.T) {
			forBothModels(t, func(t *testing.T, model pmem.MemModel) {
				p, th, tr, committed, gone, lk := holeTree(t, model, tc, recycled)
				leaf := tr.root(th)
				key := tc.key(lk)
				if sh := shapeOf(tr, key); tc.shape != nil && !tc.shape(sh) {
					t.Fatalf("leaf is not in the shape this case tapes: %+v", sh)
				}
				sw, cnt := tr.switchCtr(th, leaf), tr.count(th, leaf)
				var fl *inflightOp
				p.StartCrashLog()
				switch {
				case tc.del:
					fl = &inflightOp{key: key, oldVal: committed[key], oldOK: true}
					delete(committed, key)
					if !tr.Delete(th, key) {
						t.Fatalf("Delete(%d) missed", key)
					}
				case recycled:
					fl = &inflightOp{key: key, newVal: 999, newOK: true}
					insertRecycled(t, p, th, tr, key, 999)
				default:
					fl = &inflightOp{key: key, newVal: 999, newOK: true}
					if err := tr.Insert(th, key, 999); err != nil {
						t.Fatal(err)
					}
				}
				// The taped key may be one of the dead: it is the one
				// key allowed to come back, and inflight watches it.
				still := gone[:0:0]
				for _, k := range gone {
					if k != key {
						still = append(still, k)
					}
				}
				if got := tr.count(th, leaf); got != cnt {
					t.Fatalf("the operation moved the terminator: %d slots in use, was %d", got, cnt)
				}
				want := sw % 2
				if tc.parity >= 0 {
					want = uint64(tc.parity)
				}
				if got := tr.switchCtr(th, leaf) % 2; got != want {
					t.Fatalf("switch counter parity %d after the operation, want %d", got, want)
				}
				if err := tr.CheckInvariants(th); err != nil {
					t.Fatal(err)
				}

				rng := rand.New(rand.NewSource(42))
				for point := 0; point <= p.LogLen(); point++ {
					for _, mode := range []pmem.CrashMode{pmem.CrashNone, pmem.CrashAll, pmem.CrashRandom} {
						img := p.CrashImage(point, mode, rng)
						tag := fmt.Sprintf("point=%d mode=%d", point, mode)
						requireGone(t, img, still, tag+" unrecovered")
						verifyCrashImage(t, img, Options{}, committed, fl, tag)
						requireGone(t, img, still, tag+" recovered")
						if t.Failed() {
							return
						}
					}
				}
			})
		})
	}
}

func runHoleCases(t *testing.T, cases []holeCase) {
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { runHoleCase(t, tc) })
	}
}

// TestTombCrashDelete: the lazy delete at every persist point — mid-leaf, in
// slot 0 (where the tombstone equals the word to its left), in the last slot,
// and on either side of an existing tombstone (two equal adjacent pointers
// that are not a duplicate pair).
func TestTombCrashDelete(t *testing.T) {
	at := func(i int) func([]uint64) uint64 { return func(lk []uint64) uint64 { return lk[i] } }
	runHoleCases(t, []holeCase{
		{name: "Middle", keys: 10, key: at(5), del: true, parity: -1},
		{name: "SlotZero", keys: 10, key: at(0), del: true, parity: -1},
		{name: "LastSlot", keys: 10, key: at(9), del: true, parity: -1},
		{name: "RightOfTombstone", keys: 10, dead: []int{5}, key: at(6), del: true, parity: -1},
		{name: "LeftOfTombstone", keys: 10, dead: []int{5}, key: at(4), del: true, parity: -1},
		{name: "SlotOneBesideDeadSlotZero", keys: 10, dead: []int{0}, key: at(1), del: true, parity: -1},
	})
}

// TestHoleCrashInPlace: an insert that reuses a tombstoned slot where it
// stands — the deleted key itself, or a neighbour key from either side.
func TestHoleCrashInPlace(t *testing.T) {
	runHoleCases(t, []holeCase{
		{name: "Reinsert", keys: 10, dead: []int{5},
			key:   func(lk []uint64) uint64 { return lk[5] },
			shape: func(sh leafShape) bool { return sh.left == 5 && sh.pos == 6 && sh.right < 0 }},
		{name: "NeighbourAbove", keys: 10, dead: []int{5},
			key:   func(lk []uint64) uint64 { return lk[5] + 3 },
			shape: func(sh leafShape) bool { return sh.left == 5 && sh.pos == 6 }},
		{name: "NeighbourBelow", keys: 10, dead: []int{5},
			key:   func(lk []uint64) uint64 { return lk[5] - 3 },
			shape: func(sh leafShape) bool { return sh.right == 5 && sh.pos == 5 }},
		{name: "BetweenTwoTombstones", keys: 10, dead: []int{5, 6},
			key:   func(lk []uint64) uint64 { return lk[5] + 3 },
			shape: func(sh leafShape) bool { return sh.left == 5 && sh.right == 6 && sh.pos == 6 }},
		{name: "ReinsertBesideTombstone", keys: 10, dead: []int{5, 6},
			key:   func(lk []uint64) uint64 { return lk[5] },
			shape: func(sh leafShape) bool { return sh.left == 5 && sh.right == 6 }},
		{name: "SlotZeroReinsert", keys: 10, dead: []int{0},
			key:   func(lk []uint64) uint64 { return lk[0] },
			shape: func(sh leafShape) bool { return sh.left == 0 && sh.pos == 1 }},
		{name: "SlotZeroFromBelow", keys: 10, dead: []int{0},
			key:   func(lk []uint64) uint64 { return lk[0] - 3 },
			shape: func(sh leafShape) bool { return sh.right == 0 && sh.pos == 0 }},
	})
}

// TestHoleCrashRightShift: FAST's right shift ending in a tombstone instead
// of the terminator — three lines away, with a second tombstone right behind
// the hole, and from slot 0, where the last duplicate is of the sentinel.
func TestHoleCrashRightShift(t *testing.T) {
	runHoleCases(t, []holeCase{
		{name: "ThreeLines", keys: 20, dead: []int{13},
			key: func(lk []uint64) uint64 { return lk[0] + 3 },
			shape: func(sh leafShape) bool {
				return sh.pos == 1 && sh.right == 13 && sh.left < 0 && linesOf(1, 13) == 4
			}},
		{name: "AdjacentTombstones", keys: 20, dead: []int{9, 10},
			key:   func(lk []uint64) uint64 { return lk[2] + 3 },
			shape: func(sh leafShape) bool { return sh.pos == 3 && sh.right == 9 && sh.left < 0 }},
		{name: "FromSlotZero", keys: 20, dead: []int{6},
			key:   func(lk []uint64) uint64 { return lk[0] - 3 },
			shape: func(sh leafShape) bool { return sh.pos == 0 && sh.right == 6 }},
		// One line either way: the right hole wins the tie.
		{name: "PastDeadSlotZero", keys: 20, dead: []int{0, 5},
			key: func(lk []uint64) uint64 { return lk[3] + 3 },
			shape: func(sh leafShape) bool {
				return sh.pos == 4 && sh.right == 5 && sh.left == 0 && linesOf(4, 5) == linesOf(0, 3)
			}},
	})
}

// TestHoleCrashLeftShift: FAST's left shift starting from a tombstone and
// stopping below the insertion point — three lines away, with a second
// tombstone right before the hole, and from slot 0.
func TestHoleCrashLeftShift(t *testing.T) {
	runHoleCases(t, []holeCase{
		{name: "ThreeLines", keys: 26, dead: []int{3}, parity: 1,
			key: func(lk []uint64) uint64 { return lk[12] + 3 },
			shape: func(sh leafShape) bool {
				return sh.pos == 13 && sh.left == 3 && sh.right < 0 && linesOf(3, 12) == 4 &&
					linesOf(3, 12) <= linesOf(sh.pos, sh.cnt)
			}},
		{name: "AdjacentTombstones", keys: 26, dead: []int{5, 6}, parity: 1,
			key:   func(lk []uint64) uint64 { return lk[9] + 3 },
			shape: func(sh leafShape) bool { return sh.pos == 10 && sh.left == 6 && sh.right < 0 }},
		{name: "FromSlotZero", keys: 20, dead: []int{0}, parity: 1,
			key:   func(lk []uint64) uint64 { return lk[4] + 3 },
			shape: func(sh leafShape) bool { return sh.pos == 5 && sh.left == 0 && sh.right < 0 }},
	})
}

// TestTombKeyEqualsRightNeighbour opens, without Recover, the image a crash
// leaves right after a left shift's first store: the hole's stale key now
// equals its right neighbour's. That is a legal leaf (node.go, rule 1), not
// damage, and the lazy-repair write path must treat it so: the neighbour's
// key is overwritten, deleted and inserted again with a dead twin beside it.
func TestTombKeyEqualsRightNeighbour(t *testing.T) {
	forBothModels(t, func(t *testing.T, model pmem.MemModel) {
		tc := holeCase{keys: 26, dead: []int{3}}
		p, th, tr, committed, gone, lk := holeTree(t, model, tc, false)
		p.StartCrashLog()
		if err := tr.Insert(th, lk[12]+3, 999); err != nil { // left shift out of slot 3
			t.Fatal(err)
		}
		twin := lk[4]
		var img *pmem.Pool
		for point := 0; point <= p.LogLen() && img == nil; point++ {
			c := p.CrashImage(point, pmem.CrashAll, nil)
			cth := c.NewThread()
			ctr, err := Open(c, cth, Options{})
			if err != nil {
				t.Fatal(err)
			}
			root := ctr.root(cth)
			if ctr.dead(ctr.ptrAt(cth, root, 3)) && ctr.keyAt(cth, root, 3) == twin && ctr.keyAt(cth, root, 4) == twin {
				img = c
			}
		}
		if img == nil {
			t.Fatal("no cut right after the left shift's first key store")
		}
		ith := img.NewThread()
		tr2, err := Open(img, ith, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string, want uint64, present bool) {
			t.Helper()
			if v, ok := tr2.Get(ith, twin); ok != present || ok && v != want {
				t.Fatalf("%s: Get(%d) = %d,%v want %d,%v", stage, twin, v, ok, want, present)
			}
			for k, v := range committed {
				if k == twin {
					continue
				}
				if got, ok := tr2.Get(ith, k); !ok || got != v {
					t.Fatalf("%s: Get(%d) = %d,%v want %d,true", stage, k, got, ok, v)
				}
			}
			n := 0
			tr2.Scan(ith, 0, ^uint64(0), func(k, v uint64) bool {
				if k == twin {
					n++
				}
				return true
			})
			if present && n != 1 || !present && n != 0 {
				t.Fatalf("%s: Scan returned key %d %d times", stage, twin, n)
			}
			for _, k := range gone {
				if _, ok := tr2.Get(ith, k); ok {
					t.Fatalf("%s: deleted key %d is back", stage, k)
				}
			}
		}
		check("unrecovered", committed[twin], true)
		if err := tr2.Insert(ith, twin, 71); err != nil {
			t.Fatal(err)
		}
		check("overwritten", 71, true)
		if old, ok := tr2.Remove(ith, twin); !ok || old != 71 {
			t.Fatalf("Remove(%d) = %d,%v want 71,true", twin, old, ok)
		}
		check("deleted", 0, false)
		if err := tr2.Insert(ith, twin, 72); err != nil {
			t.Fatal(err)
		}
		check("inserted again", 72, true)
		if err := tr2.Recover(ith); err != nil {
			t.Fatal(err)
		}
		if err := tr2.CheckInvariants(ith); err != nil {
			t.Fatal(err)
		}
		check("recovered", 72, true)
	})
}
