package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
)

// reopenImages reopens crash images as one store and checks its invariants.
func reopenImages(t *testing.T, tag string, opts Options, imgs ...*pmem.Pool) *Store {
	t.Helper()
	re, err := Reopen(imgs, opts)
	if err != nil {
		t.Fatalf("%s: reopen: %v", tag, err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", tag, err)
	}
	return re
}

// reopenCut crashes every pool, pool i after cut(i) of its log records,
// under mode, and reopens the images with reopenImages. cut is called, and
// each CrashRandom image drawn from rng, in pool order.
func reopenCut(t *testing.T, tag string, pools []*pmem.Pool, cut func(i int) int, mode pmem.CrashMode, rng *rand.Rand) *Store {
	t.Helper()
	imgs := make([]*pmem.Pool, len(pools))
	for i, p := range pools {
		imgs[i] = p.CrashImage(cut(i), mode, rng)
	}
	return reopenImages(t, tag, Options{}, imgs...)
}

// TestCrashOneShardMidInsert is the sharded-store crash campaign: one shard
// suffers a simulated power failure at a random instant inside its store
// tape (pmem.Pool.CrashImage, with its adversarial per-line survivor model),
// the other shards crash at operation boundaries, and the store is Reopened
// from the images. Every committed key must be readable with its exact
// value, every in-flight-era key must be fully present or fully absent (no
// torn state), invariants must hold after recovery, and the store must be
// writable.
func TestCrashOneShardMidInsert(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		st, err := Open(Options{
			Shards:    4,
			ShardSize: 32 << 20,
			Mem:       pmem.Config{TrackCrashes: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		ss := st.NewSession()

		// Committed prefix: persisted before the crash log starts, so it
		// must survive any crash whatsoever.
		committed := map[uint64]uint64{}
		for _, k := range testKeys(3000, int64(trial)) {
			v := k ^ 0x5a5a
			if err := ss.Put(k, v); err != nil {
				t.Fatal(err)
			}
			committed[k] = v
		}

		for i := 0; i < st.NumShards(); i++ {
			st.Pool(i).StartCrashLog()
		}

		// In-flight era: more writes, then crash. The victim shard's
		// crash point is uniform over its tape, so it regularly lands
		// mid-insert (inside FAST's shift sequence or FAIR's split).
		victim := trial % st.NumShards()
		window := map[uint64]uint64{}
		for _, k := range testKeys(800, int64(trial)+50) {
			if _, dup := committed[k]; dup {
				continue
			}
			v := k ^ 0xc3c3
			if err := ss.Put(k, v); err != nil {
				t.Fatal(err)
			}
			window[k] = v
		}
		re := reopenCut(t, fmt.Sprintf("trial %d", trial), st.Pools(), func(i int) int {
			if i == victim {
				return rng.Intn(st.Pool(i).LogLen() + 1)
			}
			return st.Pool(i).LogLen()
		}, pmem.CrashRandom, rng)
		ss.Close()
		st.Close()
		rs := re.NewSession()

		for k, v := range committed {
			got, ok, err := rs.Get(k)
			if err != nil || !ok || got != v {
				t.Fatalf("trial %d: lost committed key %d: (%d,%v,%v)", trial, k, got, ok, err)
			}
		}
		survived, lost := 0, 0
		for k, v := range window {
			got, ok, err := rs.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case ok && got == v:
				survived++
			case !ok && re.ShardFor(k) == victim:
				lost++ // atomic loss of an in-flight write: legal
			case !ok:
				t.Fatalf("trial %d: shard %d lost key %d but only shard %d crashed mid-tape",
					trial, re.ShardFor(k), k, victim)
			default:
				t.Fatalf("trial %d: TORN write at key %d: got %d, want %d", trial, k, got, v)
			}
		}
		t.Logf("trial %d: victim shard %d; window writes: %d survived, %d atomically lost",
			trial, victim, survived, lost)

		// The recovered store keeps working: full merged scan remains
		// ordered, and new writes land.
		last, n := uint64(0), 0
		rs.Scan(0, ^uint64(0), func(k, v uint64) bool {
			if n > 0 && k <= last {
				t.Fatalf("trial %d: post-recovery scan out of order", trial)
			}
			last = k
			n++
			return true
		})
		if n != len(committed)+survived {
			t.Fatalf("trial %d: scan saw %d keys, want %d", trial, n, len(committed)+survived)
		}
		for i := uint64(1); i <= 200; i++ {
			if err := rs.Put(i<<40|i, i); err != nil {
				t.Fatalf("trial %d: post-recovery write: %v", trial, err)
			}
		}
		rs.Close()
		re.Close()
	}
}

// TestRecoverInstallsHighKeys is the upgrade path of the tree's node format:
// an image written before nodes carried a high key holds zero in header
// word 7 — or, for this test's second round, anything at all. Reopen
// recovers every shard before it reads through the tree, and recovery
// rewrites the word on every node from the sibling's low fence, so such an
// image reopens to full invariants with every key in place, and takes
// writes.
func TestRecoverInstallsHighKeys(t *testing.T) {
	const highKeyWord = 7
	st, err := Open(Options{Shards: 2, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	keys := testKeys(20000, 3) // enough for three levels of 512-byte nodes
	for _, k := range keys {
		if err := ss.Put(k, k^0x1234); err != nil {
			t.Fatal(err)
		}
	}
	ss.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for name, fill := range map[string]func(*rand.Rand) uint64{
		"Zeroed":  func(*rand.Rand) uint64 { return 0 },
		"Garbage": func(r *rand.Rand) uint64 { return r.Uint64() },
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			imgs := make([]*pmem.Pool, st.NumShards())
			for i := range imgs {
				imgs[i] = st.Pool(i).Clone(false)
				th := imgs[i].NewThread()
				tr, err := core.Open(imgs[i], th, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if tr.Height(th) < 3 {
					t.Fatalf("shard %d: height %d, want a multi-level tree", i, tr.Height(th))
				}
				nodes := 0
				tr.Nodes(th, func(off int64) {
					th.Store(off+highKeyWord*pmem.WordSize, fill(rng))
					nodes++
				})
				if nodes < 100 {
					t.Fatalf("shard %d: only %d nodes damaged", i, nodes)
				}
			}
			re, err := Reopen(imgs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			rs := re.NewSession()
			defer rs.Close()
			for _, k := range keys {
				if v, ok, err := rs.Get(k); err != nil || !ok || v != k^0x1234 {
					t.Fatalf("Get(%d) = %d,%v,%v after the upgrade", k, v, ok, err)
				}
			}
			seen := 0
			if err := rs.Scan(0, ^uint64(0), func(k, v uint64) bool { seen++; return true }); err != nil {
				t.Fatal(err)
			}
			if seen != len(keys) {
				t.Fatalf("Scan saw %d of %d keys", seen, len(keys))
			}
			for _, k := range testKeys(500, 4) {
				if err := rs.Put(k, k+1); err != nil {
					t.Fatal(err)
				}
			}
			if err := re.CheckInvariants(); err != nil {
				t.Fatalf("after writes: %v", err)
			}
		})
	}
}
