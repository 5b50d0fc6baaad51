package store

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
)

func openTest(t *testing.T, shards int) *Store {
	t.Helper()
	st, err := Open(Options{Shards: shards, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestBasicOps(t *testing.T) {
	st := openTest(t, 4)
	ss := st.NewSession()
	defer ss.Close()

	keys := testKeys(2000, 1)
	for _, k := range keys {
		if err := ss.Put(k, k^0xabcdef); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		v, ok, err := ss.Get(k)
		if err != nil || !ok || v != k^0xabcdef {
			t.Fatalf("Get(%d) = (%d,%v,%v)", k, v, ok, err)
		}
	}
	// Zero values are legal (the store boxes values; no InlineValues).
	if err := ss.Put(keys[0], 0); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := ss.Get(keys[0]); err != nil || !ok || v != 0 {
		t.Fatalf("zero value lost: (%d,%v,%v)", v, ok, err)
	}
	if n, err := ss.Len(); err != nil || n != len(keys) {
		t.Fatalf("Len = %d (%v), want %d", n, err, len(keys))
	}
	if ok, err := ss.Delete(keys[1]); err != nil || !ok {
		t.Fatalf("delete failed: (%v,%v)", ok, err)
	}
	if _, ok, _ := ss.Get(keys[1]); ok {
		t.Fatal("deleted key still present")
	}
	if ok, _ := ss.Delete(keys[1]); ok {
		t.Fatal("double delete reported true")
	}
}

func TestShardForPartitionsEveryShard(t *testing.T) {
	st := openTest(t, 8)
	seen := map[int]int{}
	for _, k := range testKeys(10000, 2) {
		s := st.ShardFor(k)
		if s < 0 || s >= st.NumShards() {
			t.Fatalf("ShardFor out of range: %d", s)
		}
		seen[s]++
	}
	for i := 0; i < st.NumShards(); i++ {
		// Uniform would be 1250 per shard; demand at least half that.
		if seen[i] < 625 {
			t.Errorf("shard %d got %d of 10000 keys (poor balance)", i, seen[i])
		}
	}
}

func TestPutBatch(t *testing.T) {
	st := openTest(t, 4)
	ss := st.NewSession()
	defer ss.Close()

	var batch []KV
	for _, k := range testKeys(5000, 3) {
		batch = append(batch, KV{Key: k, Val: k * 3})
	}
	// Later duplicates win.
	batch = append(batch, KV{Key: batch[0].Key, Val: 42})
	if err := ss.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := ss.Get(batch[0].Key); err != nil || !ok || v != 42 {
		t.Fatalf("duplicate override: (%d,%v,%v), want 42", v, ok, err)
	}
	for _, kv := range batch[1 : len(batch)-1] {
		if v, ok, err := ss.Get(kv.Key); err != nil || !ok || v != kv.Val {
			t.Fatalf("batch key %d = (%d,%v,%v), want %d", kv.Key, v, ok, err, kv.Val)
		}
	}
	if err := ss.PutBatch(nil); err != nil {
		t.Fatal("empty batch errored:", err)
	}
}

// TestGetBatch: a batch spanning every shard — present keys, absent keys
// and repeats — answers key for key what Get answers.
func TestGetBatch(t *testing.T) {
	st := openTest(t, 4)
	ss := st.NewSession()
	defer ss.Close()
	keys := testKeys(3000, 5)
	for _, k := range keys[:2000] {
		if err := ss.Put(k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]uint64, 64)
	found := make([]bool, 64)
	for lo := 0; lo+64 <= len(keys); lo += 37 {
		batch := append([]uint64(nil), keys[lo:lo+64]...)
		batch[5] = batch[60] // a repeat
		if err := ss.GetBatch(batch, vals, found); err != nil {
			t.Fatal(err)
		}
		for i, k := range batch {
			v, ok, _ := ss.Get(k)
			if vals[i] != v || found[i] != ok {
				t.Fatalf("GetBatch key %d (%d) = (%d,%v), Get = (%d,%v)", i, k, vals[i], found[i], v, ok)
			}
		}
	}
	if err := ss.GetBatch(nil, nil, nil); err != nil {
		t.Fatal("empty batch errored:", err)
	}
}

func TestScanMergesShardsInOrder(t *testing.T) {
	st := openTest(t, 5)
	ss := st.NewSession()
	defer ss.Close()

	keys := testKeys(3000, 4)
	want := map[uint64]uint64{}
	for _, k := range keys {
		if err := ss.Put(k, k+7); err != nil {
			t.Fatal(err)
		}
		want[k] = k + 7
	}
	// Full-range scan: globally ascending, complete, values intact.
	var got []uint64
	last := uint64(0)
	ss.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if len(got) > 0 && k <= last {
			t.Fatalf("merged scan out of order: %d after %d", k, last)
		}
		if want[k] != v {
			t.Fatalf("scan val %d for key %d, want %d", v, k, want[k])
		}
		last = k
		got = append(got, k)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("full scan saw %d, want %d", len(got), len(want))
	}
	// Bounded sub-range matches a filter of the full result.
	lo, hi := got[100], got[2000]
	i := 100
	n := 0
	ss.Scan(lo, hi, func(k, v uint64) bool {
		if k != got[i] {
			t.Fatalf("bounded scan: key %d at pos %d, want %d", k, n, got[i])
		}
		i++
		n++
		return true
	})
	if n != 2000-100+1 {
		t.Fatalf("bounded scan saw %d, want %d", n, 2000-100+1)
	}
	// Early stop terminates cleanly (producers must not leak or deadlock).
	n = 0
	ss.Scan(0, ^uint64(0), func(k, v uint64) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop after %d, want 10", n)
	}
	// Empty and inverted ranges.
	ss.Scan(3, 2, func(uint64, uint64) bool { t.Fatal("inverted range visited"); return false })
}

func TestConcurrentSessions(t *testing.T) {
	st := openTest(t, 4)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ss := st.NewSession()
			defer ss.Close()
			base := uint64(g) << 32
			for i := uint64(0); i < perG; i++ {
				k := base | i
				if err := ss.Put(k, k^5); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := ss.Get(k); err != nil || !ok || v != k^5 {
					t.Errorf("Get(%d) = (%d,%v,%v)", k, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ss := st.NewSession()
	defer ss.Close()
	if n, err := ss.Len(); err != nil || n != goroutines*perG {
		t.Fatalf("Len = %d (%v), want %d", n, err, goroutines*perG)
	}
}

func TestCleanReopen(t *testing.T) {
	st, err := Open(Options{Shards: 3, ShardSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	keys := testKeys(1000, 5)
	for _, k := range keys {
		if err := ss.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	ss.Close()
	pools := st.Pools()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Reopen(pools, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 3 {
		t.Fatalf("reopened with %d shards, want 3", re.NumShards())
	}
	rs := re.NewSession()
	defer rs.Close()
	for _, k := range keys {
		if v, ok, err := rs.Get(k); err != nil || !ok || v != k+1 {
			t.Fatalf("after reopen Get(%d) = (%d,%v,%v)", k, v, ok, err)
		}
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenRejectsMismatchedPools(t *testing.T) {
	st := openTest(t, 2)
	pools := st.Pools()

	// Wrong shard count.
	if _, err := Reopen(pools[:1], Options{}); err == nil {
		t.Fatal("reopen with missing shard accepted")
	}
	// Shards out of order (stamp ids disagree with positions).
	if _, err := Reopen([]*pmem.Pool{pools[1], pools[0]}, Options{}); err == nil {
		t.Fatal("reopen with swapped shards accepted")
	}
	// A pool that was never a store shard.
	alien := pmem.New(pmem.Config{Size: 1 << 20})
	if _, err := Reopen([]*pmem.Pool{pools[0], alien}, Options{}); err == nil {
		t.Fatal("reopen with alien pool accepted")
	}
	// Explicit Shards must agree with len(pools).
	if _, err := Reopen(pools, Options{Shards: 4}); err == nil {
		t.Fatal("reopen with contradicting Shards accepted")
	}
}

func TestReopenRejectsMismatchedShape(t *testing.T) {
	// The shape word is the one every earlier image carries (the hash of
	// "FAST+FAIR" over a default node size), so those images still reopen.
	if w := int64(shapeWord); uint64(w) != 0xabb2529a<<32 {
		t.Fatalf("shape word %#x, want %#x", uint64(w), uint64(0xabb2529a<<32))
	}
	st := openTest(t, 2)
	// A shard whose slot holds another word — an image built with another
	// index kind or node size — must be rejected, never misread.
	for _, foreign := range []int64{0, shapeWord | 1024, 0x1234 << 32} {
		imgs := []*pmem.Pool{st.Pool(0).Clone(false), st.Pool(1).Clone(false)}
		th := imgs[1].NewThread()
		imgs[1].SetRoot(th, shapeSlot, foreign)
		th.Release()
		if _, err := Reopen(imgs, Options{}); err == nil {
			t.Fatalf("reopen with shape %#x accepted", uint64(foreign))
		}
	}
	re, err := Reopen(st.Pools(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

// TestSessionOnClosedStore covers the drain contract: sessions created
// before or after Close keep working as handles, but every operation fails
// with ErrClosed instead of touching released shard state.
func TestSessionOnClosedStore(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pre := st.NewSession()
	defer pre.Close()
	if err := pre.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	post := st.NewSession() // must not panic
	defer post.Close()
	for name, err := range map[string]error{
		"Put":      pre.Put(3, 4),
		"PutBatch": pre.PutBatch([]KV{{5, 6}}),
		"Scan":     pre.Scan(0, ^uint64(0), func(uint64, uint64) bool { return true }),
		"post.Put": post.Put(7, 8),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s on closed store: err = %v, want ErrClosed", name, err)
		}
	}
	if _, _, err := pre.Get(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on closed store: err = %v, want ErrClosed", err)
	}
	if _, err := pre.Delete(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Delete on closed store: err = %v, want ErrClosed", err)
	}
	if _, err := pre.Len(); !errors.Is(err, ErrClosed) {
		t.Errorf("Len on closed store: err = %v, want ErrClosed", err)
	}
	if err := st.CheckInvariants(); !errors.Is(err, ErrClosed) {
		t.Errorf("CheckInvariants on closed store: err = %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestCloseDrainsConcurrentOps hammers the close gate: goroutines stream
// operations while the store closes underneath them. Every operation must
// either succeed cleanly or fail with ErrClosed — no panics, no torn reads —
// and everything acknowledged before Close started must still be counted.
// Run under -race this also proves the gate orders operations against
// teardown.
func TestCloseDrainsConcurrentOps(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var acked atomic.Uint64
	var closedSeen atomic.Uint64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ss := st.NewSession()
			defer ss.Close()
			<-start
			for i := uint64(0); ; i++ {
				k := uint64(g)<<32 | i
				err := ss.Put(k, k)
				if errors.Is(err, ErrClosed) {
					closedSeen.Add(1)
					return
				}
				if err != nil {
					t.Errorf("Put(%d): %v", k, err)
					return
				}
				acked.Add(1)
				if _, ok, err := ss.Get(k); err == nil && !ok {
					t.Errorf("acked key %d missing before close", k)
					return
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let writers get going
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if closedSeen.Load() != goroutines {
		t.Fatalf("%d goroutines saw ErrClosed, want %d", closedSeen.Load(), goroutines)
	}
	t.Logf("%d puts acknowledged before close", acked.Load())
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Open(Options{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestStatsAggregate(t *testing.T) {
	st := openTest(t, 2)
	ss := st.NewSession()
	for _, k := range testKeys(500, 6) {
		if err := ss.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	ss.Close() // folds session threads into the pools
	if s := st.Stats(); s.Stores == 0 || s.FlushedLines == 0 {
		t.Fatalf("aggregate stats empty after workload: %+v", s)
	}
}

// TestSessionsReadNoPhaseClock checks that phase clocks are opt-in: a
// session's threads never call pmem.Thread.TimePhases, so its writes and
// reads attribute no time to the search and update phases.
func TestSessionsReadNoPhaseClock(t *testing.T) {
	st := openTest(t, 2)
	ss := st.NewSession()
	for _, k := range testKeys(200, 7) {
		if err := ss.Put(k, k); err != nil {
			t.Fatal(err)
		}
		if ok, err := ss.Delete(k); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", k, ok, err)
		}
		if _, ok, err := ss.Get(k); err != nil || ok {
			t.Fatalf("Get(%d) after Delete = %v, %v", k, ok, err)
		}
	}
	ss.Close()
	s := st.Stats()
	if s.FlushedLines == 0 {
		t.Fatal("workload flushed nothing")
	}
	if s.PhaseTime[pmem.PhaseSearch] != 0 || s.PhaseTime[pmem.PhaseUpdate] != 0 {
		t.Errorf("untimed session threads hold search %v, update %v; want 0",
			s.PhaseTime[pmem.PhaseSearch], s.PhaseTime[pmem.PhaseUpdate])
	}
}

// TestShardScaling is the acceptance check for the shard axis: with real
// cores, 4 shards at 8 goroutines must clearly beat 1 shard on an
// insert+get workload under simulated PM write latency. Contention on a
// single tree (writer latches, one allocator) is what sharding removes, so
// the effect needs genuine parallelism — skip on small hosts where the
// schedule serialises everything anyway.
func TestShardScaling(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is not meaningful under the race detector")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("need >= 8 CPUs for 8 goroutines to scale (have %d)", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing-heavy; CI runs with -short on shared runners")
	}
	const goroutines = 8
	const ops = 40000
	run := func(shards int) float64 {
		st, err := Open(Options{
			Shards:    shards,
			ShardSize: 64 << 20,
			Mem:       pmem.Config{WriteLatency: 300 * time.Nanosecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// Monotonic keys from a shared counter: on one shard every
		// writer chases the same rightmost leaf; sharding spreads the
		// append point (BenchmarkStoreShards measures the same axis).
		var ctr atomic.Uint64
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ss := st.NewSession()
				defer ss.Close()
				var last uint64
				for i := 0; i < ops/goroutines; i++ {
					if i%2 == 1 && last != 0 {
						if _, ok, err := ss.Get(last); err != nil || !ok {
							t.Errorf("key %d missing (%v)", last, err)
							return
						}
						continue
					}
					k := ctr.Add(1)
					if err := ss.Put(k, k); err != nil {
						t.Error(err)
						return
					}
					last = k
				}
			}()
		}
		wg.Wait()
		return float64(ops) / time.Since(t0).Seconds()
	}
	one := run(1)
	four := run(4)
	t.Logf("1 shard: %.0f ops/s, 4 shards: %.0f ops/s (%.2fx)", one, four, four/one)
	if four < 2*one {
		t.Errorf("4 shards = %.2fx of 1 shard, want >= 2x", four/one)
	}
}

func testKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	seen := map[uint64]bool{}
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := rng.Uint64()
		if k == 0 || seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	return keys
}
