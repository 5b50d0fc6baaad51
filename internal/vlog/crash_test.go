package vlog

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// The vlog crash matrix: a power failure is injected at EVERY point of an
// append's persist tape — mid-payload, after the header store, after the
// record flush, and through extent growth — under each of the crash
// simulator's survivor models. The contract under test is the publish
// protocol's: records appended before the tape are byte-exact, the
// in-flight record is wholly present or wholly absent, and the reopened
// log accepts new appends.

func crashAppendMatrix(t *testing.T, model pmem.MemModel, extSize int64, valSizes []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true, Model: model})
	th := p.NewThread()
	l, err := Create(p, th, 5, extSize)
	if err != nil {
		t.Fatal(err)
	}
	// Committed prefix, persisted before the log starts: must survive
	// every crash below.
	var comRefs []Ref
	var comVals [][]byte
	for i := 0; i < 20; i++ {
		v := testValue(rng, rng.Intn(120))
		ref, err := l.Append(th, uint64(i+1), v)
		if err != nil {
			t.Fatal(err)
		}
		comRefs = append(comRefs, ref)
		comVals = append(comVals, v)
	}

	for _, n := range valSizes {
		p.StartCrashLog()
		inflight := testValue(rng, n)
		ref, err := l.Append(th, uint64(1000+n), inflight)
		if err != nil {
			t.Fatal(err)
		}
		tape := p.LogLen()
		for cp, img := range p.CrashImages(rng) {
			ith := img.NewThread()
			rl, err := Open(img, ith, 5)
			if err != nil {
				t.Fatalf("val %d %v of %d: reopen: %v", n, cp, tape, err)
			}
			if _, err := rl.Check(ith); err != nil {
				t.Fatalf("val %d %v: post-recovery check: %v", n, cp, err)
			}
			for i, cref := range comRefs {
				got, err := rl.Read(ith, cref, nil)
				if err != nil || !bytes.Equal(got, comVals[i]) {
					t.Fatalf("val %d %v: committed record %d lost: %v", n, cp, i, err)
				}
			}
			// The in-flight record: all or nothing, never torn.
			if got, err := rl.Read(ith, ref, nil); err == nil {
				if !bytes.Equal(got, inflight) {
					t.Fatalf("val %d %v: TORN in-flight record", n, cp)
				}
			}
			// The recovered log keeps appending and reading.
			nref, err := rl.Append(ith, 31337, []byte("post-crash"))
			if err != nil {
				t.Fatalf("val %d %v: post-recovery append: %v", n, cp, err)
			}
			if got, err := rl.Read(ith, nref, nil); err != nil || string(got) != "post-crash" {
				t.Fatalf("val %d %v: post-recovery read: %v", n, cp, err)
			}
		}
		// Keep the live log consistent for the next round: the append
		// above committed on the live pool.
		if got, err := l.Read(th, ref, nil); err != nil || !bytes.Equal(got, inflight) {
			t.Fatal("live log lost the appended record")
		}
		comRefs = append(comRefs, ref)
		comVals = append(comVals, inflight)
	}
}

func TestCrashEveryPointTSO(t *testing.T) {
	// 200-byte values in 4 KiB extents: the tape covers payload lines and
	// header without extent growth.
	crashAppendMatrix(t, pmem.TSO, 4096, []int{0, 5, 200})
}

func TestCrashEveryPointNonTSO(t *testing.T) {
	crashAppendMatrix(t, pmem.NonTSO, 4096, []int{0, 5, 200})
}

// TestCrashEveryPointDuringGrowth shrinks the extents so the in-flight
// append must allocate and link a new extent mid-tape, covering the
// terminate-then-link crash windows (including an extent allocated but
// never linked).
func TestCrashEveryPointDuringGrowth(t *testing.T) {
	crashAppendMatrix(t, pmem.TSO, 512, []int{300, 700})
}

// TestCrashCampaignRandomPoints is the breadth pass: many appends of mixed
// sizes, crash points sampled across the whole multi-append tape, and the
// surviving prefix checked record by record.
func TestCrashCampaignRandomPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		p := pmem.New(pmem.Config{Size: 8 << 20, TrackCrashes: true})
		th := p.NewThread()
		l, err := Create(p, th, 5, 2048)
		if err != nil {
			t.Fatal(err)
		}
		p.StartCrashLog()
		var refs []Ref
		var vals [][]byte
		marks := []int{0}
		for i := 0; i < 40; i++ {
			v := testValue(rng, rng.Intn(600))
			ref, err := l.Append(th, uint64(i+1), v)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
			vals = append(vals, v)
			marks = append(marks, p.LogLen())
		}
		point := rng.Intn(p.LogLen() + 1)
		img := p.CrashImage(point, pmem.CrashRandom, rng)
		ith := img.NewThread()
		rl, err := Open(img, ith, 5)
		if err != nil {
			t.Fatalf("trial %d point %d: %v", trial, point, err)
		}
		if _, err := rl.Check(ith); err != nil {
			t.Fatalf("trial %d point %d: check: %v", trial, point, err)
		}
		// Appends whose tape completed before the crash point must have
		// survived in full; later ones may be absent but never torn.
		for i, ref := range refs {
			got, err := rl.Read(ith, ref, nil)
			switch {
			case err == nil && bytes.Equal(got, vals[i]):
				// survived intact
			case err == nil:
				t.Fatalf("trial %d: record %d TORN after crash at %d", trial, i, point)
			case marks[i+1] <= point:
				t.Fatalf("trial %d: committed record %d (tape<=%d) lost: %v", trial, i, point, err)
			}
		}
	}
}

// TestCrashEveryPointIntoRecycledExtent is the matrix the read-only recovery
// walk rests on. GC frees a head extent whose records are all dead, and the
// next growth reuses it: every record has the same size, so CRC-clean
// records of the freed extent's earlier life lie exactly where the new
// appends land, and the allocator's zeroing of the recycled memory never
// reaches a crash image. A crash at every persist point of the appends into
// it must still leave every committed record byte-exact and the in-flight
// one whole or absent, and Open must repair nothing: it issues no store.
// A further append, crash and reopen keeps the same prefix, and a GC pass
// over the resealed extent relocates exactly the records the map names —
// none of the stale records the walk may have accepted as garbage.
func TestCrashEveryPointIntoRecycledExtent(t *testing.T) {
	for _, model := range []pmem.MemModel{pmem.TSO, pmem.NonTSO} {
		t.Run(model.String(), func(t *testing.T) { crashIntoRecycledExtent(t, model) })
	}
}

func crashIntoRecycledExtent(t *testing.T, model pmem.MemModel) {
	// rec.Size(32) = 48 bytes: ten records to a 512-byte extent, whose
	// terminator then sits one word short of the extent's end.
	const valLen = 32
	rng := rand.New(rand.NewSource(13))
	p := pmem.New(pmem.Config{Size: 64 << 10, TrackCrashes: true, Model: model})
	th := p.NewThread()
	l, err := Create(p, th, 5, 512)
	if err != nil {
		t.Fatal(err)
	}
	tree, want := mapTree{}, map[uint64][]byte{}
	put := func(l *Log, th *pmem.Thread, k uint64) Ref {
		t.Helper()
		v := testValue(rng, valLen)
		ref, err := l.Append(th, k, v)
		if err != nil {
			t.Fatalf("append key %d: %v", k, err)
		}
		if old, ok := tree[k]; ok {
			l.MarkStale(th, k, old)
		}
		tree[k], want[k] = ref, v
		return ref
	}
	// E1 holds keys 1..10, E2 keys 11..20, E3 the overwrites of 1..10: E1 is
	// all garbage, and E3 is full.
	victim := l.first
	for k := uint64(1); k <= 30; k++ {
		put(l, th, (k-1)%20+1)
	}
	if res, err := l.GC(th, 1, true, tree.funcs()); err != nil || res.Extents != 1 || res.Relocated != 0 {
		t.Fatalf("GC of the dead head extent = %+v, %v", res, err)
	}

	p.StartCrashLog()
	var refs []Ref
	var keys []uint64
	marks := []int{0}
	for k := uint64(101); k <= 104; k++ {
		refs, keys = append(refs, put(l, th, k)), append(keys, k)
		marks = append(marks, p.LogLen())
	}
	if l.curExt != victim {
		t.Fatalf("growth took extent %d, not the freed head %d: the matrix needs a recycled extent", l.curExt, victim)
	}
	committed := map[uint64]Ref{}
	for k := uint64(1); k <= 20; k++ {
		committed[k] = tree[k]
	}
	readBack := func(rl *Log, rth *pmem.Thread, k uint64, ref Ref) bool {
		got, err := rl.ReadKeyed(rth, k, ref, nil)
		if err == nil && !bytes.Equal(got, want[k]) {
			t.Fatalf("key %d: TORN record", k)
		}
		return err == nil
	}

	tape, staleSeen := p.LogLen(), 0
	for cp, img := range p.CrashImages(rng) {
		ith := img.NewThread()
		rl, err := Open(img, ith, 5)
		if err != nil {
			t.Fatalf("%v of %d: reopen: %v", cp, tape, err)
		}
		if ith.Stats.Stores != 0 || ith.Stats.FlushCalls != 0 {
			t.Fatalf("%v: Open issued %d stores and %d flushes", cp, ith.Stats.Stores, ith.Stats.FlushCalls)
		}
		if _, err := rl.Check(ith); err != nil {
			t.Fatalf("%v: post-recovery check: %v", cp, err)
		}
		if rl.QuickStats().Live > int64(valLen*(len(committed)+len(refs))) {
			staleSeen++ // the walk passed stale records as garbage
		}
		survived := map[uint64]Ref{}
		for k, ref := range committed {
			if !readBack(rl, ith, k, ref) {
				t.Fatalf("%v: committed key %d lost", cp, k)
			}
			survived[k] = ref
		}
		for i, ref := range refs {
			if readBack(rl, ith, keys[i], ref) {
				survived[keys[i]] = ref
			} else if marks[i+1] <= cp.Point {
				t.Fatalf("%v: key %d lost though its append completed", cp, keys[i])
			}
		}

		// Append, crash and reopen again: the same prefix survives.
		c := img.Clone(true)
		c.StartCrashLog()
		cth := c.NewThread()
		cl, err := Open(c, cth, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[200] = testValue(rng, valLen)
		ref, err := cl.Append(cth, 200, want[200])
		if err != nil {
			t.Fatal(err)
		}
		img2 := c.CrashImage(rng.Intn(c.LogLen()+1), cp.Mode, rng)
		ith2 := img2.NewThread()
		rl2, err := Open(img2, ith2, 5)
		if err != nil {
			t.Fatalf("%v: second reopen: %v", cp, err)
		}
		for k, ref := range survived {
			if !readBack(rl2, ith2, k, ref) {
				t.Fatalf("%v: key %d lost by the second crash", cp, k)
			}
		}
		if readBack(rl2, ith2, 200, ref) {
			survived[200] = ref
		}

		// Reseal the recycled extent with records of another size, so
		// its terminator lands among stale bytes; a fresh walk must
		// still pass it. Then GC everything sealed.
		live := mapTree(survived)
		for k := uint64(300); rl2.curExt == victim || k < 302; k++ {
			v := testValue(rng, valLen-8)
			ref, err := rl2.Append(ith2, k, v)
			if err != nil {
				t.Fatal(err)
			}
			live[k], want[k] = ref, v
		}
		if _, err := Open(img2, img2.NewThread(), 5); err != nil {
			t.Fatalf("%v: reopen after resealing: %v", cp, err)
		}
		named := 0
		for _, ref := range live {
			if ref.Off() < rl2.curExt || ref.Off() >= rl2.curEnd {
				named++
			}
		}
		res, err := rl2.GC(ith2, 0, true, live.funcs())
		if err != nil || res.Relocated != named || res.Skipped != 0 {
			t.Fatalf("%v: GC = %+v, %v; want %d relocations, the records the map names", cp, res, err, named)
		}
		for k, ref := range live {
			if !readBack(rl2, ith2, k, ref) {
				t.Fatalf("%v: key %d lost by GC", cp, k)
			}
		}
	}
	if staleSeen == 0 {
		t.Fatal("matrix degenerated: no crash image left stale records for the walk to pass")
	}
}
