package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/pmem"
)

// A shard's records bit (shardGC.records): while its tree has never named a
// value-log record, a u64 write neither reads the word it displaces nor
// retires it. These tests pin what that saves at equality, that the bit
// turns without a u64 write slipping a displaced record past the
// accounting, and that Reopen takes it from the tree.

// coldCharged runs op with every shard thread of ss swapped for a fresh one
// — a cold line cache, zeroed counters — and returns the PM reads charged.
func coldCharged(ss *Session, op func()) uint64 {
	saved := ss.ths
	ss.ths = make([]*pmem.Thread, len(saved))
	for i := range saved {
		ss.ths[i] = ss.s.shards[i].pool.NewThread()
	}
	op()
	var n uint64
	for _, th := range ss.ths {
		n += th.Stats.ChargedReads
		th.Release()
	}
	ss.ths = saved
	return n
}

// rootSlotRead is the read of a shard pool's first line, which holds the
// root slot every descent starts from: a cold thread pays it once.
const rootSlotRead = 1

// heightOf returns the height of key's shard tree.
func heightOf(st *Store, key uint64) uint64 {
	sh := st.shards[st.ShardFor(key)]
	th := sh.pool.NewThread()
	defer th.Release()
	return uint64(sh.ix.Height(th))
}

// TestStoreReadBudget: on a shard whose tree never named a value-log record,
// a u64 Delete and a Put over a present key each charge exactly their
// descent (the root slot and one node header per level), and a commit of
// four puts, one per shard, the four descents. Once a PutBytes has set each shard's bit the
// same writes read the displaced word as well: exactly one read more each,
// the box. The values are odd, which the value log refuses as a record
// reference on its alignment alone, without a read.
func TestStoreReadBudget(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 16 << 20, GCGarbageRatio: -1,
		Latency: LatencyOptions{Read: 300 * time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	const n = 20000
	for k := uint64(1); k <= n; k++ {
		if err := ss.Put(k, 2*k+1); err != nil {
			t.Fatal(err)
		}
	}
	keys := spreadKeys(t, st, 4, 4) // one per shard, all present
	for _, k := range keys {
		if h := heightOf(st, k); h < 2 {
			t.Fatalf("shard %d tree height %d: too shallow to tell a descent from a box", st.ShardFor(k), h)
		}
	}
	commit := func(val uint64) func() {
		return func() {
			tx := ss.Begin()
			for _, k := range keys {
				if err := tx.Put(k, val); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(3)() // creates the home shard's redo log
	var descents uint64
	for _, k := range keys {
		descents += rootSlotRead + heightOf(st, k)
	}

	// measure checks a Put over a present key, a Delete of a present key
	// and the 4-put commit, each charging box reads more than its descent.
	measure := func(phase string, lo uint64, box uint64) {
		t.Helper()
		for k := lo; k < lo+400; k += 7 {
			want := rootSlotRead + heightOf(st, k) + box
			if got := coldCharged(ss, func() {
				if err := ss.Put(k, 5); err != nil {
					t.Fatal(err)
				}
			}); got != want {
				t.Fatalf("%s: Put(%d) over a present key charged %d reads, want %d", phase, k, got, want)
			}
			want = rootSlotRead + heightOf(st, k+1) + box
			var ok bool
			if got := coldCharged(ss, func() { ok, err = ss.Delete(k + 1) }); got != want || !ok || err != nil {
				t.Fatalf("%s: Delete(%d) = (%v, %v) charged %d reads, want %d", phase, k+1, ok, err, got, want)
			}
		}
		if got, want := coldCharged(ss, commit(7)), descents+uint64(len(keys))*box; got != want {
			t.Fatalf("%s: 4-put commit charged %d reads, want %d (4 descents of %d reads, %d per box)",
				phase, got, want, descents, box)
		}
	}
	measure("record-free shards", 1000, 0)

	for i := range st.shards {
		if st.shards[i].gc.records.Load() {
			t.Fatalf("shard %d records bit set before any value-log append", i)
		}
	}
	for k := uint64(n + 1); ; k++ {
		if !st.shards[st.ShardFor(k)].gc.records.Load() {
			if err := ss.PutBytes(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		all := true
		for i := range st.shards {
			all = all && st.shards[i].gc.records.Load()
		}
		if all {
			break
		}
	}
	measure("after a PutBytes", 3000, 1)
}

// TestRecordsBitRaceMatchesRecount races the bit's first turn on every shard:
// on a fresh store, u64 Put/Delete goroutines write a set of keys while
// others make each shard's first PutBytes and PutKV on those keys and then
// overwrite and delete them through the u64 API. A u64 write that read the
// bit clear and then displaced a record would leave its bytes counted live;
// afterwards every shard's live/garbage accounting must equal what Reopen's
// recount computes on the same pools.
func TestRecordsBitRaceMatchesRecount(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		st, err := Open(Options{Shards: 4, ShardSize: 8 << 20, GCGarbageRatio: -1})
		if err != nil {
			t.Fatal(err)
		}
		const nkeys = 32
		// The varlen writers' keys: u64 keys, and byte keys whose tree
		// words (their prefixes) the u64 writers also hit.
		ukey := func(j int) uint64 { return uint64(1000 + j) }
		bkey := func(j int) []byte { return []byte(fmt.Sprintf("bit-%02d", j)) }
		prefixes := make([]uint64, nkeys)
		for j := range prefixes {
			prefixes[j] = PackPrefix(bkey(j))
		}
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		run := func(f func(ss *Session) error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ss := st.NewSession()
				defer ss.Close()
				if err := f(ss); err != nil {
					errs <- err
				}
			}()
		}
		for w := 0; w < 2; w++ {
			run(func(ss *Session) error { // u64 writers over the same words
				for r := 0; r < 3*nkeys; r++ {
					j := (r*7 + w*13) % nkeys
					k, p := ukey(j), prefixes[j]
					if r%3 == 2 {
						if _, err := ss.Delete(k); err != nil {
							return err
						}
						if _, err := ss.Delete(p); err != nil {
							return err
						}
						continue
					}
					if err := ss.Put(k, uint64(2*r+1)); err != nil {
						return err
					}
					if err := ss.Put(p, uint64(2*r+1)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		run(func(ss *Session) error { // varlen writers, then u64 over them
			for j := 0; j < nkeys; j++ {
				if err := ss.PutBytes(ukey(j), bval(uint64(j), 40+j)); err != nil {
					return err
				}
				if j%2 == 0 {
					if err := ss.Put(ukey(j), 9); err != nil {
						return err
					}
				} else if _, err := ss.Delete(ukey(j)); err != nil {
					return err
				}
			}
			return nil
		})
		run(func(ss *Session) error {
			for j := 0; j < nkeys; j++ {
				if err := ss.PutKV(bkey(j), bval(uint64(j), 30+j)); err != nil {
					// A u64 writer's word on the prefix is no bucket.
					if errors.Is(err, ErrNotKeyed) {
						continue
					}
					return err
				}
				if j%2 == 0 {
					if err := ss.Put(prefixes[j], 11); err != nil {
						return err
					}
				} else if _, err := ss.Delete(prefixes[j]); err != nil {
					return err
				}
			}
			return nil
		})
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		before := make([]ValueLogStats, len(st.shards))
		for i, sh := range st.shards {
			q := sh.vl.QuickStats()
			before[i] = ValueLogStats{Live: q.Live, Garbage: q.Garbage}
		}
		st.Close()
		re, err := Reopen(st.Pools(), Options{GCGarbageRatio: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range re.shards {
			q := sh.vl.QuickStats()
			if q.Live != before[i].Live || q.Garbage != before[i].Garbage {
				t.Fatalf("trial %d shard %d: accounting live %d garbage %d, Reopen recounts live %d garbage %d",
					trial, i, before[i].Live, before[i].Garbage, q.Live, q.Garbage)
			}
		}
		re.Close()
	}
}

// TestReopenTakesRecordsBitFromTree: Reopen sets a shard's bit exactly when
// its tree names a record. A live PutBytes key, reopened, still moves its
// bytes to garbage on a u64 Delete; a store whose only varlen key was
// deleted before Close, reopened, charges no box read on a u64 Delete.
func TestReopenTakesRecordsBitFromTree(t *testing.T) {
	const vkey, ukey = 1 << 40, 3000
	reopen := func(t *testing.T, deleteFirst bool) *Store {
		t.Helper()
		st, err := Open(Options{Shards: 1, ShardSize: 8 << 20, GCGarbageRatio: -1,
			Latency: LatencyOptions{Read: 300 * time.Nanosecond}})
		if err != nil {
			t.Fatal(err)
		}
		ss := st.NewSession()
		for k := uint64(1); k <= 2*ukey; k++ { // a tree of a few levels
			if err := ss.Put(k, 2*k+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := ss.PutBytes(vkey, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if deleteFirst {
			if ok, err := ss.Delete(vkey); !ok || err != nil {
				t.Fatalf("Delete(%#x) = (%v, %v)", uint64(vkey), ok, err)
			}
		}
		ss.Close()
		st.Close()
		re, err := Reopen(st.Pools(), Options{GCGarbageRatio: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { re.Close() })
		return re
	}
	t.Run("LiveRecord", func(t *testing.T) {
		re := reopen(t, false)
		if !re.shards[0].gc.records.Load() {
			t.Fatal("records bit clear after reopening a tree that names a record")
		}
		ss := re.NewSession()
		defer ss.Close()
		if ok, err := ss.Delete(vkey); !ok || err != nil {
			t.Fatalf("Delete = (%v, %v)", ok, err)
		}
		if v := re.ValueStats(); v.Live != 0 || v.Garbage != 100 {
			t.Fatalf("after a u64 Delete of the reopened varlen key: live %d garbage %d, want 0 and 100", v.Live, v.Garbage)
		}
	})
	t.Run("DeletedRecord", func(t *testing.T) {
		re := reopen(t, true)
		if re.shards[0].gc.records.Load() {
			t.Fatal("records bit set after reopening a tree that names no record")
		}
		ss := re.NewSession()
		defer ss.Close()
		want := rootSlotRead + heightOf(re, ukey)
		var ok bool
		var err error
		if got := coldCharged(ss, func() { ok, err = ss.Delete(ukey) }); got != want || !ok || err != nil {
			t.Fatalf("Delete = (%v, %v) charged %d reads, want the descent's %d", ok, err, got, want)
		}
	})
}
