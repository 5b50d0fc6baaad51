package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestToggleFootprintIsStationary: putting and deleting the same universe
// over and over, on one session, must not grow the pools — through the
// fixed-width API, and through the byte-key API, where every key has its
// own prefix and so its own tree entry and value box. Value-log extents are
// kept small so that what GC holds back between passes stays below the
// bound; each shard thread may hold a few retire batches of boxes in limbo.
// With boxes never recycled, every pass costs 8 bytes per key.
func TestToggleFootprintIsStationary(t *testing.T) {
	const (
		universe = 3000
		passes   = 20
		slack    = 4 * (4 << 10) // per shard: limbo, and an extent GC has not reached yet
	)
	order := rand.New(rand.NewSource(1)).Perm(universe)
	bkey := func(k int) []byte { return []byte(fmt.Sprintf("%08d-key", k)) }
	families := []struct {
		name string
		put  func(ss *Session, k int) error
		del  func(ss *Session, k int) (bool, error)
	}{
		{"u64",
			func(ss *Session, k int) error { return ss.Put(uint64(k), uint64(k)+1) },
			func(ss *Session, k int) (bool, error) { return ss.Delete(uint64(k)) }},
		{"bytes",
			func(ss *Session, k int) error { return ss.PutKV(bkey(k), []byte("thirty-two bytes of value, about")) },
			func(ss *Session, k int) (bool, error) { return ss.DeleteKV(bkey(k)) }},
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			st, err := Open(Options{ShardSize: 32 << 20, ValueLogExtent: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ss := st.NewSession()
			defer ss.Close()
			used := func() (u int64) {
				for _, p := range st.Pools() {
					u += p.Size() - p.FreeBytes()
				}
				return u
			}
			var after2 int64
			for pass := 1; pass <= passes; pass++ {
				for _, k := range order {
					if err := f.put(ss, k); err != nil {
						t.Fatal(err)
					}
				}
				for _, k := range order {
					if ok, err := f.del(ss, k); err != nil || !ok {
						t.Fatalf("pass %d: delete of key %d = %v, %v", pass, k, ok, err)
					}
				}
				if pass == 2 {
					after2 = used()
				}
			}
			if grew := used() - after2; grew > slack {
				t.Fatalf("%d toggle passes of %d keys grew the pools by %d bytes (allowed %d; never recycling costs %d)",
					passes-2, universe, grew, slack, (passes-2)*universe*8)
			}
		})
	}
}

// TestScanCallbackMayCompact: Session.Scan hands pairs to the caller's
// callback, which is free to do anything a session can — here a full GC
// pass from a second session and a run of varlen overwrites that trip the
// inline trigger, each of which waits for the grace periods of the very
// shards being scanned. The tree scan runs its own callback inside a
// section; were the caller's code reached from there, the fence would wait
// for the scan and the scan for the fence.
func TestScanCallbackMayCompact(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 32 << 20, ValueLogExtent: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ss, other := st.NewSession(), st.NewSession()
	const pairs = 1000 // several producer pages per shard
	for k := uint64(0); k < pairs; k++ {
		if err := ss.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage in both logs, so the pass has extents to free and fences to
	// wait at.
	val := make([]byte, 512)
	overwrite := func(s *Session) {
		for k := uint64(0); k < 64; k++ {
			if err := s.PutBytes(1<<32+k, val); err != nil {
				t.Error(err)
			}
		}
	}
	overwrite(ss)
	overwrite(ss)

	done := make(chan error, 1)
	go func() {
		seen := uint64(0)
		err := ss.Scan(0, pairs-1, func(k, v uint64) bool {
			if k != seen || v != k+1 {
				t.Errorf("pair %d: got (%d, %d)", seen, k, v)
			}
			switch seen {
			case 10:
				cs, err := other.CompactValues()
				if err != nil || cs.ExtentsFreed == 0 {
					t.Errorf("CompactValues inside a Scan callback: %+v, %v", cs, err)
				}
			case 20:
				for i := 0; i < 40; i++ {
					overwrite(other)
				}
			}
			seen++
			return true
		})
		if seen != pairs {
			t.Errorf("Scan visited %d pairs, want %d", seen, pairs)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		// Closing would wait for the stuck scan: leave the store behind.
		t.Fatal("Scan callback running a GC pass never returned")
	}
	ss.Close()
	other.Close()
	st.Close()
}
