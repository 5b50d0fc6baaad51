package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

func bval(k uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(k>>uint(8*(i%8))) ^ byte(i)
	}
	return b
}

func TestPutGetBytesRoundTrip(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	rng := rand.New(rand.NewSource(1))
	want := map[uint64][]byte{}
	for i := 0; i < 2000; i++ {
		k := rng.Uint64()%100000 + 1
		v := bval(k, rng.Intn(400))
		if err := ss.PutBytes(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v // later duplicates overwrite, like the map
	}
	var buf []byte
	for k, v := range want {
		got, ok, err := ss.GetBytes(k, buf[:0])
		if err != nil || !ok {
			t.Fatalf("key %d: (%v, %v)", k, ok, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("key %d: got %d bytes, want %d", k, len(got), len(v))
		}
		buf = got
	}
	// Miss and delete semantics.
	if _, ok, err := ss.GetBytes(1<<50, nil); ok || err != nil {
		t.Fatalf("miss: (%v, %v)", ok, err)
	}
	for k := range want {
		if ok, err := ss.Delete(k); !ok || err != nil {
			t.Fatalf("delete %d: (%v, %v)", k, ok, err)
		}
		if _, ok, _ := ss.GetBytes(k, nil); ok {
			t.Fatalf("key %d survives delete", k)
		}
		break
	}
}

func TestBytesLimitsAndMixedAPIs(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	if err := ss.PutBytes(1, make([]byte, MaxValue+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("oversized: %v, want ErrValueTooLarge", err)
	}
	// Empty values are legal and distinct from absence.
	if err := ss.PutBytes(2, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := ss.GetBytes(2, nil); err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty value: (%q, %v, %v)", got, ok, err)
	}
	// A fixed-width key read through the varlen API is rejected, not
	// misread.
	if err := ss.Put(3, 999); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ss.GetBytes(3, nil); !errors.Is(err, ErrNotVarlen) {
		t.Fatalf("fixed key via GetBytes: %v, want ErrNotVarlen", err)
	}
}

func TestScanBytes(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()

	const n = 500
	for k := uint64(1); k <= n; k++ {
		if err := ss.PutBytes(k, bval(k, int(k%97))); err != nil {
			t.Fatal(err)
		}
	}
	last, seen := uint64(0), 0
	err = ss.ScanBytes(10, 400, 0, func(k uint64, v []byte) bool {
		if k <= last || k < 10 || k > 400 {
			t.Fatalf("scan order/range violated at key %d", k)
		}
		if !bytes.Equal(v, bval(k, int(k%97))) {
			t.Fatalf("scan value mismatch at key %d", k)
		}
		last = k
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 391 {
		t.Fatalf("scan visited %d keys, want 391", seen)
	}
	// Bounded pages and early stop.
	seen = 0
	if err := ss.ScanBytes(0, ^uint64(0), 25, func(uint64, []byte) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != 25 {
		t.Fatalf("bounded scan visited %d, want 25", seen)
	}
	seen = 0
	if err := ss.ScanBytes(0, ^uint64(0), 0, func(uint64, []byte) bool { seen++; return seen < 7 }); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("early-stop scan visited %d, want 7", seen)
	}
}

// TestBytesReopen round-trips varlen values through a clean Close/Reopen:
// refs stored in the tree must resolve in the recovered value log.
func TestBytesReopen(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	want := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1500; i++ {
		k := rng.Uint64()%50000 + 1
		v := bval(k, rng.Intn(600))
		if err := ss.PutBytes(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	pools := st.Pools()
	ss.Close()
	st.Close()

	re, err := Reopen(pools, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs := re.NewSession()
	defer rs.Close()
	for k, v := range want {
		got, ok, err := rs.GetBytes(k, nil)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d after reopen: (%v, %v)", k, ok, err)
		}
	}
	if err := rs.PutBytes(1<<40, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidPutBytes is the acceptance gate: a shard suffers a simulated
// power failure at a random point inside a window of PutBytes traffic —
// regularly mid-append or between the log publish and the tree insert —
// and the store is Reopened from the images. Committed varlen values
// survive byte-exact, the in-flight era is all-or-nothing per key (no torn
// value is ever visible), and the recovered store keeps serving both APIs.
func TestCrashMidPutBytes(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		st, err := Open(Options{
			Shards:    4,
			ShardSize: 32 << 20,
			Mem:       pmem.Config{TrackCrashes: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		ss := st.NewSession()

		committed := map[uint64][]byte{}
		for i := 0; i < 800; i++ {
			k := rng.Uint64()%100000 + 1
			v := bval(k, rng.Intn(500))
			if err := ss.PutBytes(k, v); err != nil {
				t.Fatal(err)
			}
			committed[k] = v
		}

		for i := 0; i < st.NumShards(); i++ {
			st.Pool(i).StartCrashLog()
		}

		victim := trial % st.NumShards()
		window := map[uint64][]byte{}
		for i := 0; i < 300; i++ {
			k := rng.Uint64()%100000 + 200000
			v := bval(k, rng.Intn(500))
			if err := ss.PutBytes(k, v); err != nil {
				t.Fatal(err)
			}
			window[k] = v
		}
		images := make([]*pmem.Pool, st.NumShards())
		for i := 0; i < st.NumShards(); i++ {
			pool := st.Pool(i)
			point := pool.LogLen()
			if i == victim {
				point = rng.Intn(pool.LogLen() + 1)
			}
			images[i] = pool.CrashImage(point, pmem.CrashRandom, rng)
		}
		ss.Close()
		st.Close()

		re, err := Reopen(images, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: post-recovery invariants: %v", trial, err)
		}
		rs := re.NewSession()

		var buf []byte
		for k, v := range committed {
			got, ok, err := rs.GetBytes(k, buf[:0])
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("trial %d: lost committed varlen key %d: (%v, %v)", trial, k, ok, err)
			}
			buf = got
		}
		survived, lost := 0, 0
		for k, v := range window {
			got, ok, err := rs.GetBytes(k, buf[:0])
			switch {
			case err == nil && ok && bytes.Equal(got, v):
				survived++
			case err == nil && !ok && re.ShardFor(k) == victim:
				lost++ // atomic loss of an in-flight varlen write: legal
			case err == nil && !ok:
				t.Fatalf("trial %d: shard %d lost key %d but only shard %d crashed mid-tape",
					trial, re.ShardFor(k), k, victim)
			default:
				t.Fatalf("trial %d: TORN varlen value at key %d: ok=%v err=%v", trial, k, ok, err)
			}
			buf = got
		}
		t.Logf("trial %d: victim shard %d; window: %d survived, %d atomically lost",
			trial, victim, survived, lost)

		// The recovered store serves both APIs and accepts new writes.
		if err := rs.PutBytes(777, []byte("post-crash varlen")); err != nil {
			t.Fatalf("trial %d: post-recovery PutBytes: %v", trial, err)
		}
		if err := rs.Put(1<<45, 42); err != nil {
			t.Fatalf("trial %d: post-recovery Put: %v", trial, err)
		}
		rs.Close()
		re.Close()
	}
}

// TestCrashEveryPointOfOnePutBytes enumerates the full persist tape of a
// single PutBytes — every prefix of its stores, flushes and fences on the
// victim shard — asserting at each cut that the key is wholly present or
// wholly absent after Reopen. This is the store-level mirror of the vlog
// crash matrix, with the tree insert included in the tape.
func TestCrashEveryPointOfOnePutBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	st, err := Open(Options{
		Shards:    1,
		ShardSize: 32 << 20,
		Mem:       pmem.Config{TrackCrashes: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	committed := map[uint64][]byte{}
	for i := uint64(1); i <= 50; i++ {
		v := bval(i, int(i)*7%300)
		if err := ss.PutBytes(i, v); err != nil {
			t.Fatal(err)
		}
		committed[i] = v
	}
	pool := st.Pool(0)
	pool.StartCrashLog()
	const key = uint64(999999)
	val := bval(key, 200)
	if err := ss.PutBytes(key, val); err != nil {
		t.Fatal(err)
	}
	tape := pool.LogLen()
	if tape == 0 {
		t.Fatal("empty crash tape")
	}
	for point := 0; point <= tape; point++ {
		for _, mode := range []pmem.CrashMode{pmem.CrashNone, pmem.CrashAll, pmem.CrashRandom} {
			img := pool.CrashImage(point, mode, rng)
			re, err := Reopen([]*pmem.Pool{img}, Options{})
			if err != nil {
				t.Fatalf("point %d/%d mode %d: reopen: %v", point, tape, mode, err)
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatalf("point %d mode %d: invariants: %v", point, mode, err)
			}
			rs := re.NewSession()
			for k, v := range committed {
				got, ok, err := rs.GetBytes(k, nil)
				if err != nil || !ok || !bytes.Equal(got, v) {
					t.Fatalf("point %d mode %d: committed key %d: (%v, %v)", point, mode, k, ok, err)
				}
			}
			got, ok, err := rs.GetBytes(key, nil)
			if err != nil {
				t.Fatalf("point %d mode %d: in-flight key errored (torn state visible): %v", point, mode, err)
			}
			if ok && !bytes.Equal(got, val) {
				t.Fatalf("point %d mode %d: TORN value for in-flight key", point, mode)
			}
			if point == tape && !ok {
				t.Fatalf("completed PutBytes lost at full tape")
			}
			if err := rs.PutBytes(key+1, []byte("recovered")); err != nil {
				t.Fatalf("point %d mode %d: post-recovery write: %v", point, mode, err)
			}
			rs.Close()
			re.Close()
		}
	}
	ss.Close()
	st.Close()
}

// TestBytesConcurrentSessions drives varlen puts/gets from several
// goroutines (one Session each) to exercise the append mutex against the
// lock-free readers under the race detector.
func TestBytesConcurrentSessions(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const goroutines = 4
	const perG = 300
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			ss := st.NewSession()
			defer ss.Close()
			base := uint64(g) << 32
			var buf []byte
			for i := uint64(1); i <= perG; i++ {
				k := base | i
				v := bval(k, int(i%250))
				if err := ss.PutBytes(k, v); err != nil {
					errs <- err
					return
				}
				got, ok, err := ss.GetBytes(k, buf[:0])
				if err != nil || !ok || !bytes.Equal(got, v) {
					errs <- fmt.Errorf("g%d key %d: ok=%v err=%v", g, k, ok, err)
					return
				}
				buf = got
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
