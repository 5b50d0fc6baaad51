package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// Crash-consistency matrix for the byte-key write path, extending the
// TestCrashEveryPointOfOnePutBytes pattern: tape one PutKV into a bucket
// that already holds prefix-colliding keys, then for EVERY persist point
// on the tape and every crash mode reopen the image and check the
// failure-atomicity contract — committed keys byte-exact, the in-flight
// key either fully absent or fully present (never torn, never an error),
// and its bucket's pre-existing colliders intact either way.

func kvPutCrashMatrix(t *testing.T, model pmem.MemModel) {
	rng := rand.New(rand.NewSource(77))
	st, err := Open(Options{
		Shards:    1,
		ShardSize: 32 << 20,
		Mem:       pmem.Config{TrackCrashes: true, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	committed := map[string][]byte{}
	commit := func(k string, n int) {
		t.Helper()
		v := bytes.Repeat([]byte{byte(len(k))}, n)
		if err := ss.PutKV([]byte(k), v); err != nil {
			t.Fatalf("commit %q: %v", k, err)
		}
		committed[k] = v
	}
	// Background population, including two keys sharing the in-flight
	// key's 8-byte prefix (same bucket: the PutKV below rewrites the
	// record THEY live in) and an empty-adjacent pair.
	for i := 0; i < 20; i++ {
		commit(fmt.Sprintf("bg-%04d", i), i*13%300)
	}
	commit("crashkey-a", 150)
	commit("crashkey-b", 0)
	commit("edge", 40)
	commit("edge\x00", 41)

	pool := st.Pool(0)
	pool.StartCrashLog()
	inKey := []byte("crashkey-target")
	inVal := bytes.Repeat([]byte{0xc7}, 200)
	if err := ss.PutKV(inKey, inVal); err != nil {
		t.Fatal(err)
	}
	tape := pool.LogLen()
	if tape == 0 {
		t.Fatal("empty crash tape")
	}
	for cp, img := range pool.CrashImages(rng) {
		re := reopenImages(t, cp.String(), Options{}, img)
		rs := re.NewSession()
		for k, v := range committed {
			got, ok, err := rs.GetKV([]byte(k), nil)
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("%v: committed key %q: ok=%v err=%v", cp, k, ok, err)
			}
		}
		got, ok, err := rs.GetKV(inKey, nil)
		if err != nil {
			t.Fatalf("%v: in-flight key errored (torn state visible): %v", cp, err)
		}
		if ok && !bytes.Equal(got, inVal) {
			t.Fatalf("%v: TORN value for in-flight key", cp)
		}
		if cp.Point == tape && !ok {
			t.Fatalf("completed PutKV lost at full tape (%v)", cp)
		}
		// The store must stay writable after recovery, including into
		// the bucket the crash interrupted.
		if err := rs.PutKV([]byte("crashkey-after"), []byte("recovered")); err != nil {
			t.Fatalf("%v: post-recovery write: %v", cp, err)
		}
		rs.Close()
		re.Close()
	}
	ss.Close()
	st.Close()
}

func TestCrashEveryPointOfOnePutKV(t *testing.T)       { kvPutCrashMatrix(t, pmem.TSO) }
func TestCrashEveryPointOfOnePutKVNonTSO(t *testing.T) { kvPutCrashMatrix(t, pmem.NonTSO) }

// TestKVCrashRandomCampaign tapes a burst of byte-key mutations —
// overwrite, colliding insert, delete — and crashes at random points
// under both memory models: every key must land on one of its legal
// states (old value, new value, or absent for deletes/inserts), with the
// untouched population byte-exact throughout.
func TestKVCrashRandomCampaign(t *testing.T) {
	iters := 30
	crashesPer := 8
	if testing.Short() {
		iters, crashesPer = 8, 4
	}
	for _, model := range []pmem.MemModel{pmem.TSO, pmem.NonTSO} {
		t.Run(model.String(), func(t *testing.T) {
			for it := 0; it < iters; it++ {
				rng := rand.New(rand.NewSource(int64(1000*it) + int64(model)))
				st, err := Open(Options{
					Shards:    1,
					ShardSize: 16 << 20,
					Mem:       pmem.Config{TrackCrashes: true, Model: model},
				})
				if err != nil {
					t.Fatal(err)
				}
				ss := st.NewSession()
				stable := map[string][]byte{}
				put := func(k string, v []byte) {
					t.Helper()
					if err := ss.PutKV([]byte(k), v); err != nil {
						t.Fatalf("iter %d: put %q: %v", it, k, err)
					}
				}
				for i := 0; i < 10; i++ {
					k := fmt.Sprintf("stable-%03d", i)
					v := bytes.Repeat([]byte{byte(i)}, rng.Intn(200))
					put(k, v)
					stable[k] = v
				}
				oldOver := []byte("old-overwrite-value")
				oldDel := []byte("old-delete-value")
				put("mutate-o", oldOver) // will be overwritten on tape
				put("mutate-d", oldDel)  // will be deleted on tape

				pool := st.Pool(0)
				pool.StartCrashLog()
				newOver := bytes.Repeat([]byte{0xab}, 1+rng.Intn(300))
				insVal := bytes.Repeat([]byte{0xcd}, rng.Intn(300))
				put("mutate-o", newOver) // overwrite in place
				put("mutate-i", insVal)  // insert, collides with mutate-o/d's prefix
				if _, err := ss.DeleteKV([]byte("mutate-d")); err != nil {
					t.Fatalf("iter %d: delete: %v", it, err)
				}
				tape := pool.LogLen()
				for c := 0; c < crashesPer; c++ {
					point := rng.Intn(tape + 1)
					re := reopenCut(t, fmt.Sprintf("iter %d point %d", it, point), st.Pools(),
						func(int) int { return point }, pmem.CrashRandom, rng)
					rs := re.NewSession()
					for k, v := range stable {
						got, ok, err := rs.GetKV([]byte(k), nil)
						if err != nil || !ok || !bytes.Equal(got, v) {
							t.Fatalf("iter %d point %d: stable key %q: ok=%v err=%v", it, point, k, ok, err)
						}
					}
					check := func(k string, legal ...[]byte) {
						t.Helper()
						got, ok, err := rs.GetKV([]byte(k), nil)
						if err != nil {
							t.Fatalf("iter %d point %d: %q errored: %v", it, point, k, err)
						}
						for _, want := range legal {
							if want == nil && !ok {
								return
							}
							if want != nil && ok && bytes.Equal(got, want) {
								return
							}
						}
						t.Fatalf("iter %d point %d: %q in illegal state (ok=%v, %d bytes)",
							it, point, k, ok, len(got))
					}
					check("mutate-o", oldOver, newOver)
					check("mutate-i", nil, insVal)
					check("mutate-d", oldDel, nil)
					rs.Close()
					re.Close()
				}
				ss.Close()
				st.Close()
			}
		})
	}
}
