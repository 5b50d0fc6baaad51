package vlog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/pmem"
)

// mapTree is the test stand-in for the index layer: a volatile key→Ref map
// with the conditional-swap semantics GC needs.
type mapTree map[uint64]Ref

func (m mapTree) funcs() GCFuncs {
	return GCFuncs{
		Live: func(key uint64, ref Ref) bool { return m[key] == ref },
		Swap: func(key uint64, old, new Ref) bool {
			if m[key] != old {
				return false
			}
			m[key] = new
			return true
		},
	}
}

// fillAndChurn appends nKeys records through the map tree, then overwrites
// each key churn times (marking the replaced record stale), returning the
// expected value per key.
func fillAndChurn(t *testing.T, l *Log, th *pmem.Thread, tree mapTree, nKeys, churn, valSize int) map[uint64][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	want := make(map[uint64][]byte)
	put := func(k uint64) {
		v := testValue(rng, valSize/2+rng.Intn(valSize/2+1))
		ref, err := l.Append(th, k, v)
		if err != nil {
			t.Fatalf("append key %d: %v", k, err)
		}
		if old, ok := tree[k]; ok {
			l.MarkStale(th, k, old)
		}
		tree[k] = ref
		want[k] = v
	}
	for k := uint64(1); k <= uint64(nKeys); k++ {
		put(k)
	}
	for c := 0; c < churn; c++ {
		for k := uint64(1); k <= uint64(nKeys); k++ {
			put(k)
		}
	}
	return want
}

func verifyTree(t *testing.T, l *Log, th *pmem.Thread, tree mapTree, want map[uint64][]byte, when string) {
	t.Helper()
	for k, v := range want {
		got, err := l.ReadKeyed(th, k, tree[k], nil)
		if err != nil {
			t.Fatalf("%s: key %d: %v", when, k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("%s: key %d: wrong bytes", when, k)
		}
	}
}

func TestGCReclaimsGarbageAndPreservesLive(t *testing.T) {
	p, th := newPool(t, 8<<20, false)
	l, err := Create(p, th, 5, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tree := mapTree{}
	want := fillAndChurn(t, l, th, tree, 40, 4, 120)

	before := l.QuickStats()
	if before.Garbage == 0 || before.GarbageRatio() < 0.5 {
		t.Fatalf("churn left no garbage to collect: %+v", before)
	}
	res, err := l.GC(th, 0, true, tree.funcs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Extents == 0 || res.ReclaimedBytes == 0 {
		t.Fatalf("GC freed nothing: %+v", res)
	}
	if res.Relocated == 0 {
		t.Fatalf("GC relocated nothing (live records should have moved): %+v", res)
	}
	verifyTree(t, l, th, tree, want, "after GC")

	after, err := l.Check(th)
	if err != nil {
		t.Fatalf("post-GC check: %v", err)
	}
	if after.Cap >= before.Cap {
		t.Fatalf("capacity did not shrink: %d -> %d", before.Cap, after.Cap)
	}
	if after.Reclaimed == 0 || after.GCPasses == 0 {
		t.Fatalf("counters not updated: %+v", after)
	}
	// Repeated passes converge: once the chain is compact, GC stops short
	// of the tail extent and frees nothing more... unless relocation
	// itself left movable garbage behind, so run to a fixed point.
	for i := 0; i < 10; i++ {
		res, err = l.GC(th, 0, true, tree.funcs())
		if err != nil {
			t.Fatal(err)
		}
		if res.Extents == 0 {
			break
		}
	}
	verifyTree(t, l, th, tree, want, "after repeated GC")

	// The log still appends and the freed space is accounted.
	st := l.QuickStats()
	if st.Reclaimed == 0 {
		t.Fatal("no reclaimed bytes recorded")
	}
	if _, err := l.Append(th, 9999, []byte("post-gc")); err != nil {
		t.Fatalf("append after GC: %v", err)
	}
}

// TestGCBoundedInPlace proves churn at constant live size runs in bounded
// space when GC is interleaved: without reclamation the workload would need
// ~40x the pool, with it the pool never fills.
func TestGCBoundedInPlace(t *testing.T) {
	p, th := newPool(t, 1<<20, false) // 1 MiB pool
	l, err := Create(p, th, 5, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	tree := mapTree{}
	rng := rand.New(rand.NewSource(9))
	const nKeys, rounds, valSize = 32, 160, 1024 // ~5 MiB of appends total
	want := make(map[uint64][]byte)
	for r := 0; r < rounds; r++ {
		for k := uint64(1); k <= nKeys; k++ {
			v := testValue(rng, valSize)
			ref, err := l.Append(th, k, v)
			if err != nil {
				t.Fatalf("round %d key %d: %v (GC failed to keep up)", r, k, err)
			}
			if old, ok := tree[k]; ok {
				l.MarkStale(th, k, old)
			}
			tree[k] = ref
			want[k] = v
		}
		if l.QuickStats().GarbageRatio() > 0.5 {
			if _, err := l.GC(th, 0, true, tree.funcs()); err != nil {
				t.Fatalf("round %d GC: %v", r, err)
			}
		}
	}
	verifyTree(t, l, th, tree, want, "after churn")
	if st := l.QuickStats(); st.Reclaimed == 0 {
		t.Fatal("churn succeeded without reclaiming anything — pool larger than intended?")
	}
}

// TestGCSkipsRecordOverwrittenMidPass drives the Swap-refusal path: a key
// overwritten between GC's copy and its swap must keep the application's
// value, and the abandoned relocation copy must be collectable later.
func TestGCSkipsRecordOverwrittenMidPass(t *testing.T) {
	p, th := newPool(t, 4<<20, false)
	l, err := Create(p, th, 5, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tree := mapTree{}
	want := fillAndChurn(t, l, th, tree, 16, 2, 100)

	// Intercept Swap: the first time GC tries to move key 7, "the
	// application" overwrites it first.
	raced := false
	fs := tree.funcs()
	innerSwap := fs.Swap
	fs.Swap = func(key uint64, old, new Ref) bool {
		if key == 7 && !raced {
			raced = true
			v := []byte("overwritten mid-GC")
			ref, err := l.Append(th, 7, v)
			if err != nil {
				t.Fatalf("racing append: %v", err)
			}
			l.MarkStale(th, 7, tree[7])
			tree[7] = ref
			want[7] = v
		}
		return innerSwap(key, old, new)
	}
	res, err := l.GC(th, 0, true, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !raced {
		t.Skip("key 7 was not live in a reclaimed extent this run")
	}
	if res.Skipped == 0 {
		t.Fatalf("expected a skipped relocation: %+v", res)
	}
	verifyTree(t, l, th, tree, want, "after raced GC")
}

// TestGCNeverTouchesTailExtent: with the whole log in one extent there is
// nothing reclaimable, however much garbage it holds.
func TestGCNeverTouchesTailExtent(t *testing.T) {
	p, th := newPool(t, 4<<20, false)
	l, err := Create(p, th, 5, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tree := mapTree{}
	for i := 0; i < 50; i++ {
		ref, err := l.Append(th, 1, []byte("value"))
		if err != nil {
			t.Fatal(err)
		}
		if old, ok := tree[1]; ok {
			l.MarkStale(th, 1, old)
		}
		tree[1] = ref
	}
	res, err := l.GC(th, 0, true, tree.funcs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Extents != 0 || res.Relocated != 0 {
		t.Fatalf("GC touched the tail extent: %+v", res)
	}
	if got, err := l.ReadKeyed(th, 1, tree[1], nil); err != nil || string(got) != "value" {
		t.Fatalf("live value damaged: %v %q", err, got)
	}
}

func TestGCRequiresSwap(t *testing.T) {
	p, th := newPool(t, 1<<20, false)
	l, err := Create(p, th, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.GC(th, 0, true, GCFuncs{}); err == nil {
		t.Fatal("GC without Swap must refuse")
	}
}

func TestReadKeyedRejectsWrongOwner(t *testing.T) {
	p, th := newPool(t, 1<<20, false)
	l, err := Create(p, th, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := l.Append(th, 77, []byte("mine"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadKeyed(th, 77, ref, nil); err != nil {
		t.Fatalf("rightful owner rejected: %v", err)
	}
	if _, err := l.ReadKeyed(th, 78, ref, nil); !errors.Is(err, ErrBadRef) {
		t.Fatalf("wrong owner: err = %v, want ErrBadRef", err)
	}
	if l.IsRecord(th, 78, ref) {
		t.Fatal("IsRecord accepted the wrong owner")
	}
	if !l.IsRecord(th, 77, ref) {
		t.Fatal("IsRecord rejected the rightful owner")
	}
}

// TestAccountingFollowsLifecycle pins the live/garbage bookkeeping through
// append → overwrite → GC → reopen.
func TestAccountingFollowsLifecycle(t *testing.T) {
	p, th := newPool(t, 4<<20, false)
	l, err := Create(p, th, 5, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tree := mapTree{}
	val := make([]byte, 100)
	ref1, _ := l.Append(th, 1, val)
	tree[1] = ref1
	if st := l.QuickStats(); st.Live != 100 || st.Garbage != 0 {
		t.Fatalf("after append: %+v", st)
	}
	ref2, _ := l.Append(th, 1, val)
	l.MarkStale(th, 1, ref1)
	tree[1] = ref2
	if st := l.QuickStats(); st.Live != 100 || st.Garbage != 100 {
		t.Fatalf("after overwrite: %+v", st)
	}
	// MarkStale on a non-record word is a no-op (fixed-width values).
	if l.MarkStale(th, 2, Ref(12345)) {
		t.Fatal("MarkStale accepted a fixed-width word")
	}
	if st := l.QuickStats(); st.Garbage != 100 {
		t.Fatalf("fixed-width word changed accounting: %+v", st)
	}
	// Fill enough extents that GC can free the head, then collect.
	for k := uint64(10); k < 40; k++ {
		r, err := l.Append(th, k, val)
		if err != nil {
			t.Fatal(err)
		}
		tree[k] = r
	}
	if _, err := l.GC(th, 0, true, tree.funcs()); err != nil {
		t.Fatal(err)
	}
	st := l.QuickStats()
	if st.Garbage != 0 {
		t.Fatalf("garbage not settled by GC: %+v", st)
	}
	if st.Live != int64(100*(1+30)) {
		t.Fatalf("live drifted: %+v", st)
	}
	// Reopen assumes everything below the tail is live; ResetAccounting
	// restores the caller-computed truth.
	re, err := Open(p, th, 5)
	if err != nil {
		t.Fatal(err)
	}
	rst := re.QuickStats()
	if rst.Live == 0 || rst.Garbage != 0 {
		t.Fatalf("reopen seed accounting: %+v", rst)
	}
	re.ResetAccounting(3100, 42)
	if got := re.QuickStats(); got.Live != 3100 || got.Garbage != 42 {
		t.Fatalf("ResetAccounting: %+v", got)
	}
}

// TestGCNoWaitYieldsToRunningPass: passes are singular per log, and a
// caller that asked not to wait gets Busy — no work, no error, no queueing —
// while another pass holds the log. The second call is made from inside the
// first pass's own fence, where waiting would be a deadlock.
func TestGCNoWaitYieldsToRunningPass(t *testing.T) {
	p, th := newPool(t, 8<<20, false)
	l, err := Create(p, th, 5, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tree := mapTree{}
	want := fillAndChurn(t, l, th, tree, 40, 4, 120)

	fs := tree.funcs()
	fences := 0
	fs.Fence = func() {
		fences++
		res, err := l.GC(th, 0, false, tree.funcs())
		if err != nil || !res.Busy || res.Extents != 0 || res.Relocated != 0 {
			t.Fatalf("GC(wait=false) under a running pass = %+v, %v; want Busy and nothing done", res, err)
		}
	}
	res, err := l.GC(th, 0, true, fs)
	if err != nil || res.Busy || res.Extents == 0 || fences == 0 {
		t.Fatalf("outer pass = %+v, %v after %d fences; want extents reclaimed", res, err, fences)
	}
	if res, err = l.GC(th, 0, false, tree.funcs()); err != nil || res.Busy {
		t.Fatalf("GC(wait=false) on an idle log = %+v, %v; want it to run", res, err)
	}
	verifyTree(t, l, th, tree, want, "after nested no-wait GC")
}

// sealedRefs lists the records of every sealed extent, head first: the
// records a full GC pass walks.
func sealedRefs(th *pmem.Thread, l *Log) (refs []Ref, extents int) {
	for ext := l.first; ext != l.curExt; ext = int64(th.Load(ext)) {
		it := rec.Walk(th, ext+extHdrBytes, int64(th.Load(ext+pmem.WordSize)), false)
		for it.Next() {
			refs = append(refs, MakeRef(it.Off, it.Len))
		}
		extents++
	}
	return refs, extents
}

// TestGCSweepsEachExtentOnce pins the pass's cost: one fence on entry, one
// per extent before it is freed, and one liveness lookup per record walked
// — N+1 fences and no second sweep for an N-extent pass. A pass with
// nothing sealed fences not at all.
func TestGCSweepsEachExtentOnce(t *testing.T) {
	p, th := newPool(t, 8<<20, false)
	l, err := Create(p, th, 5, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tree := mapTree{}
	fs := tree.funcs()
	fences, lookups := 0, map[Ref]int{}
	fs.Fence = func() { fences++ }
	live := fs.Live
	fs.Live = func(key uint64, ref Ref) bool {
		lookups[ref]++
		return live(key, ref)
	}
	if _, err := l.Append(th, 1, []byte("only")); err != nil {
		t.Fatal(err)
	}
	if res, err := l.GC(th, 0, true, fs); err != nil || res.Extents != 0 || fences != 0 || len(lookups) != 0 {
		t.Fatalf("pass over the current extent alone = %+v, %v, %d fences, %d lookups; want nothing",
			res, err, fences, len(lookups))
	}

	want := fillAndChurn(t, l, th, tree, 40, 4, 120)
	refs, n := sealedRefs(th, l)
	if n < 3 {
		t.Fatalf("churn sealed only %d extents", n)
	}
	res, err := l.GC(th, 0, true, fs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extents != n || fences != n+1 {
		t.Fatalf("pass freed %d of %d sealed extents with %d fences; want all of them with %d", res.Extents, n, fences, n+1)
	}
	if len(lookups) != len(refs) {
		t.Fatalf("Live saw %d distinct records; the sealed extents hold %d", len(lookups), len(refs))
	}
	for _, ref := range refs {
		if lookups[ref] != 1 {
			t.Fatalf("Live asked about record %v %d times; want once", ref, lookups[ref])
		}
	}
	verifyTree(t, l, th, tree, want, "after single-sweep GC")

	// A bounded pass pays its entry fence once, not per extent.
	fillAndChurn(t, l, th, tree, 40, 2, 120)
	fences = 0
	if res, err := l.GC(th, 2, true, fs); err != nil || res.Extents != 2 || fences != 3 {
		t.Fatalf("bounded pass = %+v, %v with %d fences; want 2 extents and 3 fences", res, err, fences)
	}
}

// TestGCWaitsForHeldWriter: a writer appends into the head extent inside a
// grace section and installs the ref only once that extent is sealed and
// a pass has started. The pass's entry fence must wait the install out,
// so the record is relocated, not dropped with its extent.
func TestGCWaitsForHeldWriter(t *testing.T) {
	p, th := newPool(t, 8<<20, false)
	l, err := Create(p, th, 5, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	tree := mapTree{}
	fs := tree.funcs()
	live, swap := fs.Live, fs.Swap
	fs.Live = func(key uint64, ref Ref) bool { mu.Lock(); defer mu.Unlock(); return live(key, ref) }
	fs.Swap = func(key uint64, old, new Ref) bool { mu.Lock(); defer mu.Unlock(); return swap(key, old, new) }
	started, passDone := make(chan struct{}), make(chan struct{})
	fs.Fence = func() {
		select {
		case <-started:
		default:
			close(started)
		}
		p.Synchronize()
	}

	const held = 1 << 40
	val := []byte("appended before the seal, installed during the pass")
	appended := make(chan Ref)
	writerErr := make(chan error, 1)
	go func() {
		wth := p.NewThread()
		wth.Enter()
		defer wth.Exit()
		ref, err := l.Append(wth, held, val)
		if err != nil {
			close(appended)
			writerErr <- err
			return
		}
		appended <- ref
		select {
		case <-started:
		case <-passDone:
		}
		time.Sleep(time.Millisecond) // give a pass that did not wait time to free the extent
		if st := l.QuickStats(); st.GCPasses != 0 {
			writerErr <- fmt.Errorf("the pass freed %d extents before the held install", st.GCPasses)
			return
		}
		mu.Lock()
		tree[held] = ref
		mu.Unlock()
		writerErr <- nil
	}()
	ref, ok := <-appended
	if !ok {
		t.Fatal(<-writerErr)
	}
	if first := l.first; ref.Off() < first || ref.Off() >= first+l.extSize {
		t.Fatalf("held record at %d is not in the head extent at %d", ref.Off(), first)
	}
	want := fillAndChurn(t, l, th, tree, 40, 4, 120)
	if l.curExt == l.first {
		t.Fatal("churn did not seal the head extent")
	}
	res, err := l.GC(th, 0, true, fs)
	close(passDone)
	if werr := <-writerErr; werr != nil {
		t.Fatal(werr)
	}
	if err != nil || res.Extents == 0 {
		t.Fatalf("pass = %+v, %v; want extents reclaimed", res, err)
	}
	if tree[held] == ref {
		t.Fatal("the held record was dropped with its extent, not relocated")
	}
	want[held] = val
	verifyTree(t, l, th, tree, want, "after the held writer's pass")
}
