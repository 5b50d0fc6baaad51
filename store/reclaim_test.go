package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
)

// TestToggleFootprintIsStationary: putting and deleting the same universe
// over and over, on one session, must not grow the pools — through the
// fixed-width API, and through the byte-key API, where every key has its
// own prefix and so its own tree entry and value box. Value-log extents are
// kept small so that what GC holds back between passes stays below the
// bound; each shard thread may hold a few retire batches of boxes in limbo.
// With boxes never recycled, every pass costs 8 bytes per key. The trees do
// not grow at all: a deleted key leaves a tombstone in its leaf, and its next
// put takes that very slot back, so after the second pass no node is
// allocated.
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
			nodes := func() (n int) {
				for _, p := range st.Pools() {
					th := p.NewThread()
					tr, err := core.Open(p, th, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					tr.Nodes(th, func(int64) { n++ })
				}
				return n
			}
			var after2 int64
			var nodes2 int
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
					after2, nodes2 = used(), nodes()
				}
				if got := nodes(); pass > 2 && got != nodes2 {
					t.Fatalf("pass %d allocated %d tree nodes", pass, got-nodes2)
				}
			}
			if grew := used() - after2; grew > slack {
				t.Fatalf("%d toggle passes of %d keys grew the pools by %d bytes (allowed %d; never recycling costs %d)",
					passes-2, universe, grew, slack, (passes-2)*universe*8)
			}
		})
	}
}

// TestTombstoneHeavyStoreMatchesReference: as many deletes as puts over a
// small universe leave the shards' leaves mostly tombstones. Point reads,
// scans with arbitrary bounds and the store's own invariants must agree with
// a reference map all the way, and after a reopen.
func TestTombstoneHeavyStoreMatchesReference(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	const universe = 4000
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(5))
	checkScan := func(ss *Session, lo, hi uint64) {
		t.Helper()
		want := 0
		for k := range ref {
			if k >= lo && k <= hi {
				want++
			}
		}
		got, last := 0, uint64(0)
		if err := ss.Scan(lo, hi, func(k, v uint64) bool {
			if w, ok := ref[k]; !ok || w != v || k < lo || k > hi || got > 0 && k <= last {
				t.Fatalf("Scan(%d, %d) returned (%d, %d) after %d; reference has (%d, %v)", lo, hi, k, v, last, w, ok)
			}
			got, last = got+1, k
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Scan(%d, %d) returned %d pairs, reference has %d", lo, hi, got, want)
		}
	}
	for op := 0; op < 60000; op++ {
		k := rng.Uint64() % universe
		switch r := rng.Intn(10); {
		case r < 4:
			v := rng.Uint64()
			if err := ss.Put(k, v); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		case r < 8:
			_, want := ref[k]
			if ok, err := ss.Delete(k); err != nil || ok != want {
				t.Fatalf("op %d: Delete(%d) = %v, %v want %v", op, k, ok, err, want)
			}
			delete(ref, k)
		default:
			want, wantOK := ref[k]
			if v, ok, err := ss.Get(k); err != nil || ok != wantOK || ok && v != want {
				t.Fatalf("op %d: Get(%d) = %d, %v, %v want %d, %v", op, k, v, ok, err, want, wantOK)
			}
		}
		if op%500 == 0 {
			checkScan(ss, k, k+rng.Uint64()%400)
		}
	}
	checkScan(ss, 0, ^uint64(0))
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ss.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	imgs := make([]*pmem.Pool, st.NumShards())
	for i := range imgs {
		imgs[i] = st.Pool(i).Clone(false)
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
	checkScan(rs, 0, ^uint64(0))
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
