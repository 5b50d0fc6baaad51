package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
)

// --- crash matrix ----------------------------------------------------------

// gcCrashMatrix is the acceptance test of value-log compaction: a store is
// churned until its log holds relocatable garbage, and then a power
// failure is injected at EVERY point of a full CompactValues persist tape
// — mid-copy, between a copy and its tree swap, between swaps, around the
// extent unlink, mid-free of later extents — under each survivor model.
// At every cut the Reopened store must resolve every key to its exact
// current value: never a freed, torn, or stale-content record, never an
// error. This is the relocation+unlink mirror of the vlog append matrix,
// with the tree's conditional replace included in the tape.
func gcCrashMatrix(t *testing.T, model pmem.MemModel) {
	rng := rand.New(rand.NewSource(31))
	st, err := Open(Options{
		Shards:         1,
		ShardSize:      32 << 20,
		ValueLogExtent: 512,
		GCGarbageRatio: -1, // manual compaction only: the tape is one CompactValues
		Mem:            pmem.Config{TrackCrashes: true, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()

	// Spread records over several extents, then overwrite half the keys
	// (and delete one) so head extents mix live and dead records.
	want := map[uint64][]byte{}
	for k := uint64(1); k <= 12; k++ {
		v := bval(k, 40+int(k)*3)
		if err := ss.PutBytes(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for k := uint64(1); k <= 12; k += 2 {
		v := bval(k^0xa5a5, 30+int(k)*5)
		if err := ss.PutBytes(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if _, err := ss.Delete(4); err != nil {
		t.Fatal(err)
	}
	delete(want, 4)

	pool := st.Pool(0)
	pool.StartCrashLog()
	cs, err := ss.CompactValues()
	if err != nil {
		t.Fatal(err)
	}
	if cs.ExtentsFreed == 0 || cs.Relocated == 0 {
		t.Fatalf("compaction did no relocation+unlink work, tape is vacuous: %+v", cs)
	}
	tape := pool.LogLen()
	t.Logf("%v: compaction tape %d points, %+v", model, tape, cs)

	for point := 0; point <= tape; point++ {
		for _, mode := range []pmem.CrashMode{pmem.CrashNone, pmem.CrashAll, pmem.CrashRandom} {
			img := pool.CrashImage(point, mode, rng)
			re, err := Reopen([]*pmem.Pool{img}, Options{GCGarbageRatio: -1})
			if err != nil {
				t.Fatalf("point %d/%d mode %d: reopen: %v", point, tape, mode, err)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatalf("point %d mode %d: invariants: %v", point, mode, err)
			}
			rs := re.NewSession()
			for k, v := range want {
				got, ok, err := rs.GetBytes(k, nil)
				if err != nil {
					t.Fatalf("point %d mode %d: key %d resolves to a bad record: %v", point, mode, k, err)
				}
				if !ok {
					t.Fatalf("point %d mode %d: live key %d lost", point, mode, k)
				}
				if !bytes.Equal(got, v) {
					t.Fatalf("point %d mode %d: key %d stale or torn content", point, mode, k)
				}
			}
			if _, ok, err := rs.GetBytes(4, nil); ok || err != nil {
				t.Fatalf("point %d mode %d: deleted key resurrected: (%v, %v)", point, mode, ok, err)
			}
			// The recovered store keeps working, including further
			// compaction from whatever state the crash left.
			if err := rs.PutBytes(1000, []byte("post-crash")); err != nil {
				t.Fatalf("point %d mode %d: post-recovery write: %v", point, mode, err)
			}
			if _, err := rs.CompactValues(); err != nil {
				t.Fatalf("point %d mode %d: post-recovery compaction: %v", point, mode, err)
			}
			rs.Close()
			re.Close()
		}
	}
	ss.Close()
	st.Close()
}

func TestGCCrashEveryPointTSO(t *testing.T)    { gcCrashMatrix(t, pmem.TSO) }
func TestGCCrashEveryPointNonTSO(t *testing.T) { gcCrashMatrix(t, pmem.NonTSO) }

// TestGCCrashCampaignRandomPoints is the breadth pass over a larger
// compaction: random crash points across a tape covering many extents,
// interleaved churn between two compactions, CrashRandom survivor sets.
func TestGCCrashCampaignRandomPoints(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		st, err := Open(Options{
			Shards:         1,
			ShardSize:      32 << 20,
			ValueLogExtent: 1024,
			GCGarbageRatio: -1,
			Mem:            pmem.Config{TrackCrashes: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		ss := st.NewSession()
		want := map[uint64][]byte{}
		churn := func(n int) {
			for j := 0; j < n; j++ {
				k := uint64(rng.Intn(40) + 1)
				v := bval(k^uint64(j)<<16, rng.Intn(200))
				if err := ss.PutBytes(k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
		}
		churn(120)
		pool := st.Pool(0)
		pool.StartCrashLog()
		if _, err := ss.CompactValues(); err != nil {
			t.Fatal(err)
		}
		churn(40)
		if _, err := ss.CompactValues(); err != nil {
			t.Fatal(err)
		}
		point := rng.Intn(pool.LogLen() + 1)
		img := pool.CrashImage(point, pmem.CrashRandom, rng)
		re, err := Reopen([]*pmem.Pool{img}, Options{})
		if err != nil {
			t.Fatalf("trial %d point %d: %v", trial, point, err)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("trial %d point %d: invariants: %v", trial, point, err)
		}
		// Reopen's accounting comes from vlog.Open's one walk: live plus
		// garbage is every payload byte a fresh Check walks.
		cth := img.NewThread()
		cs, err := re.shards[0].vl.Check(cth)
		cth.Release()
		if vs := re.ValueStats(); err != nil || vs.Live+vs.Garbage != cs.Bytes {
			t.Fatalf("trial %d point %d: accounting live %d + garbage %d, Check walks %d bytes (%v)",
				trial, point, vs.Live, vs.Garbage, cs.Bytes, err)
		}
		rs := re.NewSession()
		// Keys written before the log started are committed; later
		// overwrites may or may not have landed, but a key must resolve
		// to SOME complete value it held, never a torn or alien one.
		for k := range want {
			got, ok, err := rs.GetBytes(k, nil)
			if err != nil {
				t.Fatalf("trial %d point %d: key %d: %v", trial, point, k, err)
			}
			if ok && !selfConsistent(k, got) {
				t.Fatalf("trial %d point %d: key %d holds a value never written for it", trial, point, k)
			}
		}
		rs.Close()
		re.Close()
		ss.Close()
		st.Close()
	}
}

// selfConsistent reports whether v could have been produced by bval for
// this key in the campaign above (any churn iteration).
func selfConsistent(k uint64, v []byte) bool {
	for j := 0; j < 256; j++ {
		if bytes.Equal(v, bval(k^uint64(j)<<16, len(v))) {
			return true
		}
	}
	return false
}

// --- bounded-space churn ---------------------------------------------------

// TestChurnSurvivesOnlyWithGC is the space acceptance test: a churn of ~10x
// the pool's capacity in overwrites must complete when automatic GC is on,
// and the identical workload must exhaust the pool with GC disabled.
func TestChurnSurvivesOnlyWithGC(t *testing.T) {
	const (
		shardSize = 4 << 20
		extent    = 32 << 10
		nKeys     = 64
		valSize   = 2048
		rounds    = 40 // ~5.3 MiB of appends into a 4 MiB pool
	)
	churn := func(ratio float64) (*Store, error) {
		st, err := Open(Options{
			Shards:         1,
			ShardSize:      shardSize,
			ValueLogExtent: extent,
			GCGarbageRatio: ratio,
		})
		if err != nil {
			t.Fatal(err)
		}
		ss := st.NewSession()
		defer ss.Close()
		for r := 0; r < rounds; r++ {
			for k := uint64(1); k <= nKeys; k++ {
				if err := ss.PutBytes(k, bval(k^uint64(r)<<20, valSize)); err != nil {
					return st, fmt.Errorf("round %d key %d: %w", r, k, err)
				}
			}
		}
		return st, nil
	}

	st, err := churn(0) // default ratio: automatic GC on
	if err != nil {
		t.Fatalf("churn with GC failed: %v", err)
	}
	vs := st.ValueStats()
	if vs.Reclaimed == 0 || vs.GCPasses == 0 {
		t.Fatalf("churn survived without reclaiming anything: %+v", vs)
	}
	// Every key still reads its last value.
	ss := st.NewSession()
	for k := uint64(1); k <= nKeys; k++ {
		got, ok, err := ss.GetBytes(k, nil)
		if err != nil || !ok || !bytes.Equal(got, bval(k^uint64(rounds-1)<<20, valSize)) {
			t.Fatalf("key %d after churn: ok=%v err=%v", k, ok, err)
		}
	}
	ss.Close()
	st.Close()

	st, err = churn(-1) // GC disabled: the same workload must overflow
	if err == nil {
		t.Fatal("churn without GC completed — pool too large for the test to mean anything")
	}
	st.Close()
	t.Logf("without GC the pool overflowed as expected: %v", err)
}

// --- concurrency -----------------------------------------------------------

// TestConcurrentGCAndVarlenOps races full compaction passes against
// readers, writers and deleters on overlapping keys, under -race in CI.
//
// The safety argument under test (see store/gc.go): a GC pass frees an
// extent only after (1) every tree ref into it was conditionally swapped
// to a relocated copy and (2) the shard pool's Synchronize returned, which
// waits out every reader holding a pre-swap ref snapshot — readers resolve
// tree word → log bytes entirely inside one grace section. So a reader can
// race a relocation or an overwrite (and legally observe either value of
// that race) but can never observe freed, rezeroed, or recycled log space,
// which is what the value self-check below would catch.
func TestConcurrentGCAndVarlenOps(t *testing.T) {
	st, err := Open(Options{
		Shards:         2,
		ShardSize:      64 << 20,
		ValueLogExtent: 4 << 10,
		GCGarbageRatio: -1, // GC runs on its own goroutine below, constantly
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const (
		nKeys   = 128
		workers = 4
		perW    = 1500
	)
	mkVal := func(k, seq uint64) []byte {
		v := make([]byte, 64+int(k%7)*24)
		binary.LittleEndian.PutUint64(v, seq)
		for i := 8; i < len(v); i++ {
			v[i] = byte(k>>uint(8*(i%8))) ^ byte(seq) ^ byte(i)
		}
		return v
	}
	checkVal := func(k uint64, v []byte) bool {
		if len(v) < 8 {
			return false
		}
		seq := binary.LittleEndian.Uint64(v)
		return bytes.Equal(v, mkVal(k, seq)[:len(v)]) && len(v) == len(mkVal(k, seq))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)

	// The compactor: back-to-back full passes for the whole run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ss := st.NewSession()
		defer ss.Close()
		for !stop.Load() {
			if _, err := ss.CompactValues(); err != nil {
				errs <- fmt.Errorf("compactor: %w", err)
				return
			}
		}
		errs <- nil
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			ss := st.NewSession()
			defer ss.Close()
			var buf []byte
			for i := 0; i < perW; i++ {
				k := uint64(rng.Intn(nKeys) + 1)
				switch rng.Intn(10) {
				case 0:
					if _, err := ss.Delete(k); err != nil {
						errs <- fmt.Errorf("w%d delete %d: %w", w, k, err)
						return
					}
				case 1, 2, 3:
					if err := ss.PutBytes(k, mkVal(k, uint64(w)<<32|uint64(i))); err != nil {
						errs <- fmt.Errorf("w%d put %d: %w", w, k, err)
						return
					}
				default:
					got, ok, err := ss.GetBytes(k, buf[:0])
					if err != nil {
						errs <- fmt.Errorf("w%d get %d: %w", w, k, err)
						return
					}
					if ok {
						if !checkVal(k, got) {
							errs <- fmt.Errorf("w%d get %d: value fails self-check (freed or torn record?)", w, k)
							return
						}
						buf = got
					}
				}
			}
			errs <- nil
		}(w)
	}

	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			stop.Store(true)
			t.Fatal(err)
		}
	}
	stop.Store(true)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScanBytesDuringGC pages ScanBytes while a compactor relocates under
// it: collected ref snapshots go stale mid-page and must be transparently
// re-resolved (or skipped if deleted), never surfacing ErrNotVarlen or
// corrupt reads for live keys.
func TestScanBytesDuringGC(t *testing.T) {
	st, err := Open(Options{
		Shards:         2,
		ShardSize:      64 << 20,
		ValueLogExtent: 2 << 10,
		GCGarbageRatio: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	const nKeys = 400
	for k := uint64(1); k <= nKeys; k++ {
		if err := ss.PutBytes(k, bval(k, 64)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		cs := st.NewSession()
		defer cs.Close()
		rng := rand.New(rand.NewSource(7))
		for !stop.Load() {
			k := uint64(rng.Intn(nKeys) + 1)
			if err := cs.PutBytes(k, bval(k, 64)); err != nil {
				done <- err
				return
			}
			if _, err := cs.CompactValues(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for iter := 0; iter < 40; iter++ {
		seen := 0
		lo := uint64(0)
		for {
			last := uint64(0)
			n := 0
			err := ss.ScanBytes(lo, nKeys, 64, func(k uint64, v []byte) bool {
				if len(v) != 64 {
					t.Errorf("key %d: %d bytes mid-GC", k, len(v))
				}
				last, n = k, n+1
				return true
			})
			if err != nil {
				stop.Store(true)
				<-done
				t.Fatalf("iter %d: scan: %v", iter, err)
			}
			seen += n
			if n == 0 || last >= nKeys {
				break
			}
			lo = last + 1
		}
		if seen < nKeys-1 { // a put+scan race may hide at most the in-flight key per page... be strict anyway
			t.Fatalf("iter %d: scan saw %d of %d keys", iter, seen, nKeys)
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// --- accounting ------------------------------------------------------------

// TestDeleteAccountingUnified pins the satellite fix: every path that
// displaces a tree word (Delete, Put, PutBytes, overwrite or
// removal, fixed or varlen) feeds the same retireWord funnel, so reclaim
// stats move exactly when a varlen record died and never otherwise.
func TestDeleteAccountingUnified(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 16 << 20, GCGarbageRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	garbage := func() int64 { return st.ValueStats().Garbage }

	// Fixed-width keys: no varlen record is ever involved, so no path may
	// move the reclaim stats.
	if err := ss.Put(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := ss.Put(1, 200); err != nil { // fixed overwrite
		t.Fatal(err)
	}
	if ok, err := ss.Delete(1); !ok || err != nil {
		t.Fatalf("Delete on fixed key: (%v, %v)", ok, err)
	}
	if err := ss.Put(2, 300); err != nil {
		t.Fatal(err)
	}
	if ok, err := ss.Delete(2); !ok || err != nil {
		t.Fatalf("Delete on fixed key: (%v, %v)", ok, err)
	}
	if g := garbage(); g != 0 {
		t.Fatalf("fixed-width ops produced %d garbage bytes", g)
	}

	// Varlen overwrite and delete: exactly the dead payload is counted.
	if err := ss.PutBytes(10, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutBytes(10, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if g := garbage(); g != 100 {
		t.Fatalf("after varlen overwrite: garbage %d, want 100", g)
	}
	if ok, err := ss.Delete(10); !ok || err != nil {
		t.Fatal(err)
	}
	if g := garbage(); g != 150 {
		t.Fatalf("after varlen delete: garbage %d, want 150", g)
	}

	// Delete (the fixed-named API) on a varlen key counts identically —
	// the funnel cannot be bypassed.
	if err := ss.PutBytes(11, make([]byte, 70)); err != nil {
		t.Fatal(err)
	}
	if ok, err := ss.Delete(11); !ok || err != nil {
		t.Fatal(err)
	}
	if g := garbage(); g != 220 {
		t.Fatalf("Delete on varlen key: garbage %d, want 220", g)
	}

	// A fixed Put clobbering a varlen key retires the record too.
	if err := ss.PutBytes(12, make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	if err := ss.Put(12, 42); err != nil {
		t.Fatal(err)
	}
	if g := garbage(); g != 250 {
		t.Fatalf("fixed Put over varlen key: garbage %d, want 250", g)
	}

	// Deleting that (now fixed) key adds nothing further.
	if ok, err := ss.Delete(12); !ok || err != nil {
		t.Fatal(err)
	}
	if g := garbage(); g != 250 {
		t.Fatalf("delete of fixed word moved stats: garbage %d, want 250", g)
	}

	// PutBatch clobbering a varlen key goes through the same funnel.
	if err := ss.PutBytes(13, make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutBatch([]KV{{Key: 13, Val: 1}, {Key: 14, Val: 2}}); err != nil {
		t.Fatal(err)
	}
	if g := garbage(); g != 290 {
		t.Fatalf("PutBatch over varlen key: garbage %d, want 290", g)
	}
}

// TestReopenRecomputesAccounting: the live/garbage counters are volatile;
// Reopen must rebuild them from the log and tree walks so automatic GC
// still triggers after a restart.
func TestReopenRecomputesAccounting(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 16 << 20, ValueLogExtent: 1024, GCGarbageRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	for k := uint64(1); k <= 50; k++ {
		if err := ss.PutBytes(k, bval(k, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 50; k += 2 { // overwrite half
		if err := ss.PutBytes(k, bval(k^7, 100)); err != nil {
			t.Fatal(err)
		}
	}
	before := st.ValueStats()
	if before.Garbage == 0 {
		t.Fatalf("no garbage before reopen: %+v", before)
	}
	ss.Close()
	pools := st.Pools()
	st.Close()

	re, err := Reopen(pools, Options{GCGarbageRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	after := re.ValueStats()
	if after.Live != before.Live || after.Garbage != before.Garbage {
		t.Fatalf("reopen accounting drifted: before %+v, after %+v", before, after)
	}
	// And a compaction started from recomputed state reclaims it.
	rs := re.NewSession()
	defer rs.Close()
	cs, err := rs.CompactValues()
	if err != nil {
		t.Fatal(err)
	}
	if cs.ReclaimedBytes == 0 {
		t.Fatalf("nothing reclaimed after reopen: %+v", cs)
	}
	if g := re.ValueStats().Garbage; g >= before.Garbage {
		t.Fatalf("garbage did not shrink: %d -> %d", before.Garbage, g)
	}
}

// TestCompactValuesOnClosedStore: the close gate applies.
func TestCompactValuesOnClosedStore(t *testing.T) {
	st, err := Open(Options{Shards: 1, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	st.Close()
	if _, err := ss.CompactValues(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	ss.Close()
}
