package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// The crash-injection suite is the repository's substitute for the paper's
// physical power-off experiments (§5.7), and is strictly more thorough: for
// a set of representative operations it enumerates *every* store/flush
// boundary as a crash point, and for each point checks that
//
//	(a) a reader on the un-recovered image returns correct results for all
//	    committed keys (endurable transient inconsistency),
//	(b) the in-flight operation is atomic: its key is either fully present
//	    (new value) or fully absent (old state), never mangled,
//	(c) eager recovery restores full structural invariants, and
//	(d) recovery is idempotent.

// crashTree builds a tracked tree, applies setup, then logs one operation
// and verifies every crash point of that operation.
func crashTree(t *testing.T, model pmem.MemModel, opts Options, setup map[uint64]uint64,
	setupOrder []uint64, op func(tr *BTree, th *pmem.Thread)) {
	t.Helper()
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range setupOrder {
		if err := tr.Insert(th, k, setup[k]); err != nil {
			t.Fatal(err)
		}
	}
	p.StartCrashLog()
	op(tr, th)
	verifyAllCrashPoints(t, p, opts, setup, nil)
}

// verifyAllCrashPoints checks (a)–(d) for every crash point of the logged
// suffix. committed maps keys to values that must be intact at every point;
// inflight (may be nil) describes the single in-flight op's key and its
// legal outcomes.
type inflightOp struct {
	key    uint64
	oldVal uint64
	oldOK  bool // key existed before the op
	newVal uint64
	newOK  bool // key exists after the op
}

func verifyAllCrashPoints(t *testing.T, p *pmem.Pool, opts Options,
	committed map[uint64]uint64, inflight *inflightOp) {
	t.Helper()
	for cp, img := range p.CrashImages(rand.New(rand.NewSource(42))) {
		verifyCrashImage(t, img, opts, committed, inflight, cp.String())
		if t.Failed() {
			return
		}
	}
}

func verifyCrashImage(t *testing.T, img *pmem.Pool, opts Options,
	committed map[uint64]uint64, inflight *inflightOp, tag string) {
	t.Helper()
	th := img.NewThread()
	tr, err := Open(img, th, opts)
	if err != nil {
		t.Fatalf("%s: Open: %v", tag, err)
	}

	// (a) un-recovered reads tolerate the transient inconsistency.
	for k, v := range committed {
		got, ok := tr.Get(th, k)
		if !ok || got != v {
			t.Fatalf("%s: pre-recovery Get(%d) = %d,%v want %d,true", tag, k, got, ok, v)
		}
	}
	// (b) the in-flight op is failure-atomic.
	checkInflight := func(stage string) {
		if inflight == nil {
			return
		}
		got, ok := tr.Get(th, inflight.key)
		oldState := ok == inflight.oldOK && (!ok || got == inflight.oldVal)
		newState := ok == inflight.newOK && (!ok || got == inflight.newVal)
		if !oldState && !newState {
			t.Fatalf("%s: %s in-flight key %d in illegal state (%d,%v)",
				tag, stage, inflight.key, got, ok)
		}
	}
	checkInflight("pre-recovery")

	// (c) recovery restores full invariants and keeps committed data.
	if err := tr.Recover(th); err != nil {
		t.Fatalf("%s: Recover: %v", tag, err)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatalf("%s: post-recovery: %v", tag, err)
	}
	for k, v := range committed {
		got, ok := tr.Get(th, k)
		if !ok || got != v {
			t.Fatalf("%s: post-recovery Get(%d) = %d,%v want %d,true", tag, k, got, ok, v)
		}
	}
	checkInflight("post-recovery")

	// (d) recovery is idempotent.
	if err := tr.Recover(th); err != nil {
		t.Fatalf("%s: second Recover: %v", tag, err)
	}
	if err := tr.CheckInvariants(th); err != nil {
		t.Fatalf("%s: after second Recover: %v", tag, err)
	}
}

// buildSetup returns n keys with a fixed stride so node population is
// deterministic.
func buildSetup(n int, stride, base uint64) (map[uint64]uint64, []uint64) {
	m := make(map[uint64]uint64, n)
	var order []uint64
	for i := 0; i < n; i++ {
		k := base + uint64(i)*stride
		m[k] = k * 3
		order = append(order, k)
	}
	return m, order
}

func forBothModels(t *testing.T, f func(t *testing.T, model pmem.MemModel)) {
	t.Run("TSO", func(t *testing.T) { f(t, pmem.TSO) })
	t.Run("NonTSO", func(t *testing.T) { f(t, pmem.NonTSO) })
}

func TestCrashInsertMiddle(t *testing.T) {
	forBothModels(t, func(t *testing.T, model pmem.MemModel) {
		setup, order := buildSetup(10, 10, 100) // keys 100..190
		p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
		th := p.NewThread()
		tr, _ := New(p, th, Options{})
		for _, k := range order {
			tr.Insert(th, k, setup[k])
		}
		p.StartCrashLog()
		tr.Insert(th, 145, 999) // middle insert, shifts half the node
		verifyAllCrashPoints(t, p, Options{}, setup,
			&inflightOp{key: 145, oldOK: false, newVal: 999, newOK: true})
	})
}

func TestCrashInsertHead(t *testing.T) {
	forBothModels(t, func(t *testing.T, model pmem.MemModel) {
		setup, order := buildSetup(10, 10, 100)
		p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
		th := p.NewThread()
		tr, _ := New(p, th, Options{})
		for _, k := range order {
			tr.Insert(th, k, setup[k])
		}
		p.StartCrashLog()
		tr.Insert(th, 5, 555) // head insert exercises the sentinel path
		verifyAllCrashPoints(t, p, Options{}, setup,
			&inflightOp{key: 5, oldOK: false, newVal: 555, newOK: true})
	})
}

func TestCrashInsertAppend(t *testing.T) {
	setup, order := buildSetup(10, 10, 100)
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, _ := New(p, th, Options{})
	for _, k := range order {
		tr.Insert(th, k, setup[k])
	}
	p.StartCrashLog()
	tr.Insert(th, 500, 50) // append at tail
	verifyAllCrashPoints(t, p, Options{}, setup,
		&inflightOp{key: 500, oldOK: false, newVal: 50, newOK: true})
}

func TestCrashUpsert(t *testing.T) {
	setup, order := buildSetup(10, 10, 100)
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, _ := New(p, th, Options{})
	for _, k := range order {
		tr.Insert(th, k, setup[k])
	}
	p.StartCrashLog()
	tr.Insert(th, 150, 7777) // in-place box update
	delete(setup, 150)
	verifyAllCrashPoints(t, p, Options{}, setup,
		&inflightOp{key: 150, oldVal: 450, oldOK: true, newVal: 7777, newOK: true})
}

func TestCrashDelete(t *testing.T) {
	forBothModels(t, func(t *testing.T, model pmem.MemModel) {
		setup, order := buildSetup(10, 10, 100)
		p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
		th := p.NewThread()
		tr, _ := New(p, th, Options{})
		for _, k := range order {
			tr.Insert(th, k, setup[k])
		}
		p.StartCrashLog()
		tr.Delete(th, 130)
		old := setup[130]
		delete(setup, 130)
		verifyAllCrashPoints(t, p, Options{}, setup,
			&inflightOp{key: 130, oldVal: old, oldOK: true, newOK: false})
	})
}

func TestCrashDeleteHead(t *testing.T) {
	setup, order := buildSetup(10, 10, 100)
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, _ := New(p, th, Options{})
	for _, k := range order {
		tr.Insert(th, k, setup[k])
	}
	p.StartCrashLog()
	tr.Delete(th, 100) // head delete duplicates the sentinel
	old := setup[100]
	delete(setup, 100)
	verifyAllCrashPoints(t, p, Options{}, setup,
		&inflightOp{key: 100, oldVal: old, oldOK: true, newOK: false})
}

func TestCrashDeleteLast(t *testing.T) {
	setup, order := buildSetup(10, 10, 100)
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, _ := New(p, th, Options{})
	for _, k := range order {
		tr.Insert(th, k, setup[k])
	}
	p.StartCrashLog()
	tr.Delete(th, 190) // tail delete: invalidate + terminator only
	old := setup[190]
	delete(setup, 190)
	verifyAllCrashPoints(t, p, Options{}, setup,
		&inflightOp{key: 190, oldVal: old, oldOK: true, newOK: false})
}

// TestCrashDeleteBeforeFirstFlush: on a boxed tree there is no such stretch
// any more. A delete's tape is one store, one flush, one fence — the
// tombstone over the slot's pointer and the flush of its line — wherever the
// key sits and however many entries follow it. Before the store the key is
// there, after the flush it is gone, and in between it is whichever the crash
// makes it; every image serves every other key and recovers.
func TestCrashDeleteBeforeFirstFlush(t *testing.T) {
	forBothModels(t, func(t *testing.T, model pmem.MemModel) {
		setup, order := buildSetup(3*slotsPerLine, 10, 100)
		p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
		th := p.NewThread()
		tr, _ := New(p, th, Options{})
		for _, k := range order {
			tr.Insert(th, k, setup[k])
		}
		key := order[slotsPerLine] // first slot of the second record line
		old := setup[key]
		leaf := tr.descendToLeaf(th, key)
		sw, cnt := tr.switchCtr(th, leaf), tr.count(th, leaf)
		before := th.Stats
		p.StartCrashLog()
		tr.Delete(th, key)
		delete(setup, key)

		if n := p.LogLen(); n != 3 {
			t.Fatalf("the delete's tape holds %d records, want 3: store, flush, fence", n)
		}
		if st := th.Stats; st.FlushedLines-before.FlushedLines != 1 || st.Fences-before.Fences != 1 ||
			st.StoreFences != before.StoreFences {
			t.Fatalf("the delete flushed %d lines with %d fences and %d store fences, want 1, 1, 0",
				st.FlushedLines-before.FlushedLines, st.Fences-before.Fences, st.StoreFences-before.StoreFences)
		}
		if got := tr.switchCtr(th, leaf); got != sw {
			t.Fatalf("the delete moved the switch counter %d -> %d", sw, got)
		}
		if got := tr.count(th, leaf); got != cnt {
			t.Fatalf("the delete moved the terminator: %d slots in use, was %d", got, cnt)
		}

		holds := func(img *pmem.Pool) bool {
			ith := img.NewThread()
			itr, err := Open(img, ith, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, ok := itr.Get(ith, key)
			return ok
		}
		for cp, img := range p.CrashImages(rand.New(rand.NewSource(7))) {
			// Point 1 is the store alone: durable only if evicted.
			want := cp.Point == 0 || cp.Point == 1 && cp.Mode == pmem.CrashNone
			if got := holds(img); got != want && !(cp.Point == 1 && cp.Mode == pmem.CrashRandom) {
				t.Fatalf("%v: key present = %v, want %v", cp, got, want)
			}
			verifyCrashImage(t, img, Options{}, setup,
				&inflightOp{key: key, oldVal: old, oldOK: true, newOK: false}, cp.String())
		}
	})
}

// TestCrashLeafSplit fills one leaf exactly and crashes inside the split of
// the next insert — the FAIR sequence (build, link, truncate, insert,
// parent update) in full.
func TestCrashLeafSplit(t *testing.T) {
	forBothModels(t, func(t *testing.T, model pmem.MemModel) {
		opts := Options{NodeSize: 256} // 12 slots, 11 max entries
		p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true, Model: model})
		th := p.NewThread()
		tr, err := New(p, th, opts)
		if err != nil {
			t.Fatal(err)
		}
		setup := map[uint64]uint64{}
		for i := uint64(0); i < 11; i++ { // fill the root leaf
			k := 100 + i*10
			tr.Insert(th, k, k*3)
			setup[k] = k * 3
		}
		p.StartCrashLog()
		tr.Insert(th, 145, 999) // forces root-leaf split (root grow too)
		verifyAllCrashPoints(t, p, opts, setup,
			&inflightOp{key: 145, oldOK: false, newVal: 999, newOK: true})
	})
}

// TestCrashInternalSplit drives enough inserts to split an internal node and
// crashes through the cascade.
func TestCrashInternalSplit(t *testing.T) {
	opts := Options{NodeSize: 128} // 4 slots, 3 max entries: splits cascade fast
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := map[uint64]uint64{}
	for i := uint64(0); i < 30; i++ {
		k := i * 10
		tr.Insert(th, k, k+1)
		setup[k] = k + 1
	}
	if tr.Height(th) < 3 {
		t.Fatalf("setup did not build 3 levels (height %d)", tr.Height(th))
	}
	p.StartCrashLog()
	tr.Insert(th, 301, 42) // lands right of everything: splits rightmost spine
	verifyAllCrashPoints(t, p, opts, setup,
		&inflightOp{key: 301, oldOK: false, newVal: 42, newOK: true})
}

// TestCrashLoggedSplit exercises the FAST+Logging baseline's redo log.
func TestCrashLoggedSplit(t *testing.T) {
	opts := Options{NodeSize: 256, LoggedSplit: true}
	p := pmem.New(pmem.Config{Size: 2 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	setup := map[uint64]uint64{}
	for i := uint64(0); i < 11; i++ {
		k := 100 + i*10
		tr.Insert(th, k, k*3)
		setup[k] = k * 3
	}
	p.StartCrashLog()
	tr.Insert(th, 145, 999)
	verifyAllCrashPoints(t, p, opts, setup,
		&inflightOp{key: 145, oldOK: false, newVal: 999, newOK: true})
}

// TestCrashCampaign runs a long random tape with op-boundary marks and
// random crash points, reconstructing the committed oracle per point.
func TestCrashCampaign(t *testing.T) {
	forBothModels(t, func(t *testing.T, model pmem.MemModel) {
		const nOps = 300
		opts := Options{NodeSize: 256}
		p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true, Model: model})
		th := p.NewThread()
		tr, err := New(p, th, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))

		type opRec struct {
			logPos int
			del    bool
			key    uint64
			val    uint64
		}
		var ops []opRec
		p.StartCrashLog()
		for i := 0; i < nOps; i++ {
			pos := p.Mark(int64(i))
			k := rng.Uint64() % 200
			// Half deletes: the tape's inserts land in, shift into and
			// split around tombstones.
			if rng.Intn(2) == 0 {
				ops = append(ops, opRec{pos, true, k, 0})
				tr.Delete(th, k)
			} else {
				v := rng.Uint64()
				ops = append(ops, opRec{pos, false, k, v})
				if err := tr.Insert(th, k, v); err != nil {
					t.Fatal(err)
				}
			}
		}

		logLen := p.LogLen()
		crashRng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 120; trial++ {
			point := crashRng.Intn(logLen + 1)
			mode := pmem.CrashModes[trial%3]

			// Committed ops: those whose mark precedes the point,
			// except the last one which is (potentially) in flight.
			nDone := 0
			for nDone < len(ops) && ops[nDone].logPos <= point {
				nDone++
			}
			oracle := map[uint64]uint64{}
			var fl *inflightOp
			if nDone > 0 {
				for _, o := range ops[:nDone-1] {
					if o.del {
						delete(oracle, o.key)
					} else {
						oracle[o.key] = o.val
					}
				}
				last := ops[nDone-1]
				oldVal, oldOK := oracle[last.key]
				if last.del {
					fl = &inflightOp{key: last.key, oldVal: oldVal, oldOK: oldOK, newOK: false}
				} else {
					fl = &inflightOp{key: last.key, oldVal: oldVal, oldOK: oldOK,
						newVal: last.val, newOK: true}
				}
				delete(oracle, last.key)
			}
			img := p.CrashImage(point, mode, crashRng)
			verifyCrashImage(t, img, opts,
				oracle, fl, fmt.Sprintf("trial=%d point=%d mode=%d", trial, point, mode))
			if t.Failed() {
				return
			}
		}
	})
}

// TestCrashThenContinue crashes, recovers, and keeps operating on the
// recovered tree — recovery must leave a fully writable tree.
func TestCrashThenContinue(t *testing.T) {
	opts := Options{NodeSize: 256}
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]uint64{}
	for i := uint64(0); i < 500; i++ {
		tr.Insert(th, i, i)
		oracle[i] = i
	}
	p.StartCrashLog()
	for i := uint64(500); i < 600; i++ {
		tr.Insert(th, i, i)
	}
	rng := rand.New(rand.NewSource(3))
	for _, point := range []int{1, p.LogLen() / 3, p.LogLen() / 2, p.LogLen()} {
		img := p.CrashImage(point, pmem.CrashRandom, rng)
		ith := img.NewThread()
		tr2, err := Open(img, ith, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.Recover(ith); err != nil {
			t.Fatal(err)
		}
		// Continue operating post-recovery.
		for i := uint64(1000); i < 1500; i++ {
			if err := tr2.Insert(ith, i, i*2); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 500; i++ {
			if v, ok := tr2.Get(ith, i); !ok || v != i {
				t.Fatalf("point %d: committed Get(%d) = %d,%v", point, i, v, ok)
			}
		}
		for i := uint64(1000); i < 1500; i++ {
			if v, ok := tr2.Get(ith, i); !ok || v != i*2 {
				t.Fatalf("point %d: post-recovery Get(%d) = %d,%v", point, i, v, ok)
			}
		}
		if err := tr2.CheckInvariants(ith); err != nil {
			t.Fatalf("point %d: %v", point, err)
		}
	}
}

// TestCrashVacuum verifies Vacuum's merge steps are individually
// crash-consistent (readable at every cut; recovery restores invariants).
func TestCrashVacuum(t *testing.T) {
	opts := Options{NodeSize: 256}
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
	th := p.NewThread()
	tr, err := New(p, th, opts)
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 200; i++ {
		tr.Insert(th, i, i+7)
	}
	for i := uint64(0); i < 200; i++ {
		if i%8 != 0 {
			tr.Delete(th, i)
		} else {
			committed[i] = i + 7
		}
	}
	p.StartCrashLog()
	if err := tr.Vacuum(th); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	logLen := p.LogLen()
	for trial := 0; trial < 150; trial++ {
		point := rng.Intn(logLen + 1)
		mode := pmem.CrashModes[trial%3]
		img := p.CrashImage(point, mode, rng)
		ith := img.NewThread()
		tr2, err := Open(img, ith, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range committed {
			if got, ok := tr2.Get(ith, k); !ok || got != v {
				t.Fatalf("trial %d point %d: pre-recovery Get(%d) = %d,%v", trial, point, k, got, ok)
			}
		}
		if err := tr2.Recover(ith); err != nil {
			t.Fatal(err)
		}
		for k, v := range committed {
			if got, ok := tr2.Get(ith, k); !ok || got != v {
				t.Fatalf("trial %d point %d: post-recovery Get(%d) = %d,%v", trial, point, k, got, ok)
			}
		}
	}
}
