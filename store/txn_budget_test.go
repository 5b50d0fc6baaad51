package store

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/pmem"
	"repro/internal/txnlog"
)

// The commit's cost ledger, gated at equality. The counts are what the
// simulator charges — deterministic, so any extra flush or fence in the
// commit path fails here before a wall-clock benchmark could see it.

// spreadKeys returns k distinct fixed-width keys that land on exactly the
// shards 0..s-1, dealt round-robin.
func spreadKeys(t *testing.T, st *Store, k, s int) []uint64 {
	t.Helper()
	keys := make([]uint64, 0, k)
	for c := uint64(1); len(keys) < k; c++ {
		if c > 1<<20 {
			t.Fatalf("could not spread %d keys over %d shards", k, s)
		}
		if st.ShardFor(c) == len(keys)%s {
			keys = append(keys, c)
		}
	}
	return keys
}

// linesSpanned counts the cache lines a record of size bytes touches when
// appended at byte offset off of a line-aligned region.
func linesSpanned(off, size int64) uint64 {
	return uint64((off+size-1)/pmem.LineSize - off/pmem.LineSize + 1)
}

// TestTxnPersistBudget: a commit of k fixed-width overwrites costs one commit
// record (the whole write-set, in the home shard's log) + k in-place applies +
// 1 truncation, one flush call and one fence each — k+2 whatever the number
// of shards s the keys spread over — and flushes exactly the lines that
// record and those words occupy. A shard's first commit as home creates its
// redo log on top of that: the header line and the root slot, one flush call
// and one fence each.
func TestTxnPersistBudget(t *testing.T) {
	const txnPutLen = 1 + 8 + 8 // kind byte, key, value
	for _, k := range []int{1, 4, 16} {
		for _, s := range []int{1, 2, 4} {
			if s > k {
				continue
			}
			t.Run(fmt.Sprintf("k=%d/s=%d", k, s), func(t *testing.T) {
				st := openTest(t, 4)
				ss := st.NewSession()
				defer ss.Close()
				keys := spreadKeys(t, st, k, s)
				for _, key := range keys {
					if err := ss.Put(key, 1); err != nil {
						t.Fatal(err)
					}
				}
				stats := func() (sum pmem.Stats) {
					for _, th := range ss.ths {
						sum.Add(th.Stats)
					}
					return sum
				}
				// Three rounds: the first commit on a store pays for the home
				// shard's redo log it creates, every later one must cost the
				// same.
				for round := uint64(2); round < 5; round++ {
					tx := ss.Begin()
					for _, key := range keys {
						if err := tx.Put(key, round); err != nil {
							t.Fatal(err)
						}
					}
					before := stats()
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					after := stats()

					wantFences := uint64(k + 2)
					// record + applies + truncation
					wantLines := linesSpanned(0, txnlog.RecordSize(k*txnPutLen)) + uint64(k) + 1
					if round == 2 {
						wantFences += 2
						wantLines += 2
					}
					if got := after.Fences - before.Fences; got != wantFences {
						t.Errorf("round %d: %d fences, want k+2 (+2 on the first commit) = %d", round, got, wantFences)
					}
					if got := after.FlushCalls - before.FlushCalls; got != wantFences {
						t.Errorf("round %d: %d flush calls, want one per fence = %d", round, got, wantFences)
					}
					if got := after.FlushedLines - before.FlushedLines; got != wantLines {
						t.Errorf("round %d: %d flushed lines, want %d", round, got, wantLines)
					}
				}
			})
		}
	}
}

// TestFixedWidthWritesAllocFree pins the garbage-accounting funnel's cost:
// every displaced tree word is checked against the value log (retireWord),
// and for a fixed-width value that check must refuse without allocating.
func TestFixedWidthWritesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is checked in non-race runs")
	}
	st := openTest(t, 4)
	ss := st.NewSession()
	defer ss.Close()
	const runs = 200
	for key := uint64(0); key <= runs; key++ {
		if err := ss.Put(key, 1); err != nil {
			t.Fatal(err)
		}
	}
	val := uint64(1)
	if allocs := testing.AllocsPerRun(runs, func() {
		val++
		if err := ss.Put(7, val); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Put overwrite allocs/op = %v, want 0", allocs)
	}
	key := uint64(0)
	if allocs := testing.AllocsPerRun(runs, func() {
		if ok, err := ss.Delete(key); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", key, ok, err)
		}
		key++
	}); allocs != 0 {
		t.Errorf("Delete allocs/op = %v, want 0", allocs)
	}
}

// TestPointReadsAllocFree pins the read side of the same contract: a warm
// Get, and a GetBytes or GetKV handed a reused dst, allocate nothing.
func TestPointReadsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is checked in non-race runs")
	}
	st := openTest(t, 4)
	ss := st.NewSession()
	defer ss.Close()
	const runs = 200
	val := bytes.Repeat([]byte("v"), 100)
	for key := uint64(0); key < runs; key++ {
		if err := ss.Put(key, key); err != nil {
			t.Fatal(err)
		}
		if err := ss.PutBytes(1<<40+key, val); err != nil {
			t.Fatal(err)
		}
		if err := ss.PutKV([]byte(fmt.Sprintf("alloc-key-%03d", key)), val); err != nil {
			t.Fatal(err)
		}
	}
	kkey := []byte("alloc-key-007")
	dst := make([]byte, 0, 256)
	bkeys := []uint64{3, 7, 11, 19, 23, 42, 99, 150}
	bvals := make([]uint64, len(bkeys))
	bfound := make([]bool, len(bkeys))
	for _, read := range []struct {
		name string
		run  func() (bool, error)
	}{
		{"Get", func() (bool, error) { _, ok, err := ss.Get(7); return ok, err }},
		{"GetBytes", func() (ok bool, err error) { dst, ok, err = ss.GetBytes(1<<40+7, dst[:0]); return ok, err }},
		{"GetKV", func() (ok bool, err error) { dst, ok, err = ss.GetKV(kkey, dst[:0]); return ok, err }},
		{"GetBatch", func() (bool, error) {
			err := ss.GetBatch(bkeys, bvals, bfound)
			return !slices.Contains(bfound, false), err
		}},
	} {
		read.run() // warm-up: sizes the session's buffers
		if allocs := testing.AllocsPerRun(runs, func() {
			if ok, err := read.run(); !ok || err != nil {
				t.Fatalf("%s = (%v, %v)", read.name, ok, err)
			}
		}); allocs != 0 {
			t.Errorf("%s allocs/op = %v, want 0", read.name, allocs)
		}
	}
}

// txnSink makes the measured transaction escape, as a caller's does.
var txnSink *Txn

// TestTxnCommitAllocBudget pins a steady-state commit of four fixed-width
// overwrites — Begin, four Puts, Commit — on a warm session at exactly one
// allocation, the transaction itself: the write-set map is the one the
// previous transaction handed back, and nothing is allocated per key, for
// the plan, or in the locked section.
func TestTxnCommitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is checked in non-race runs")
	}
	st := openTest(t, 4)
	ss := st.NewSession()
	defer ss.Close()
	keys := spreadKeys(t, st, 4, 4)
	val := uint64(0)
	commit := func() {
		val++
		tx := ss.Begin()
		txnSink = tx
		for _, key := range keys {
			if err := tx.Put(key, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // sizes the session's plan scratch and leaves it a spare map
	if allocs := testing.AllocsPerRun(100, commit); allocs != 1 {
		t.Errorf("4-put commit allocs/op = %v, want 1", allocs)
	}
}
