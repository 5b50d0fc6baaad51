package store

import (
	"bytes"
	"testing"

	"repro/internal/plog"
	"repro/internal/pmem"
	"repro/internal/vlog"
)

// recordLines counts the cache lines of the value-log record a tree word
// names.
func recordLines(word uint64) uint64 {
	r := vlog.Ref(word)
	return linesSpanned(r.Off(), plog.Format{Meta: 1}.Size(r.Len()))
}

// TestValueLogPersistBudget is the varlen write's cost ledger, gated at
// equality on a warm shard. A value-log record is published by its own
// flush: its lines, one flush call, one fence, and no tail word. So a
// PutBytes or PutKV overwrite costs lines(record) + 1 flushed lines — the
// record, then the tree word that names it — in exactly two flush calls and
// two fences, and a fixed-width Put overwrite costs the tree word alone.
func TestValueLogPersistBudget(t *testing.T) {
	st, err := Open(Options{Shards: 1, ShardSize: 32 << 20, GCGarbageRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	th := ss.ths[0]
	bkey := []byte("persist-budget-key")
	word := func(key uint64) uint64 {
		w, _ := st.shards[0].ix.Get(th, key)
		return w
	}
	writes := []struct {
		name  string
		write func(round int) error
		key   uint64 // the tree word the write installs; 0 = fixed-width
	}{
		{"Put", func(r int) error { return ss.Put(9, uint64(r)) }, 0},
		{"PutBytes", func(r int) error { return ss.PutBytes(7, bytes.Repeat([]byte{byte(r)}, 256)) }, 7},
		{"PutKV", func(r int) error { return ss.PutKV(bkey, bytes.Repeat([]byte{byte(r)}, 100)) }, PackPrefix(bkey)},
	}
	for _, w := range writes {
		if err := w.write(0); err != nil { // the insert warms the shard
			t.Fatal(err)
		}
		for round := 1; round <= 4; round++ {
			before := th.Stats
			if err := w.write(round); err != nil {
				t.Fatal(err)
			}
			after := th.Stats
			wantLines, wantCalls := uint64(1), uint64(1)
			if w.key != 0 {
				wantLines += recordLines(word(w.key))
				wantCalls = 2
			}
			lines, calls, fences := after.FlushedLines-before.FlushedLines, after.FlushCalls-before.FlushCalls, after.Fences-before.Fences
			if lines != wantLines || calls != wantCalls || fences != wantCalls {
				t.Errorf("%s overwrite %d: %d lines, %d flush calls, %d fences; want %d, %d, %d",
					w.name, round, lines, calls, fences, wantLines, wantCalls, wantCalls)
			}
		}
	}

	// The value log alone: one Append is its record's lines and one fence.
	p := pmem.New(pmem.Config{Size: 1 << 20})
	vth := p.NewThread()
	vl, err := vlog.Create(p, vth, 5, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 40, 100, 256, 1000} {
		before := vth.Stats
		ref, err := vl.Append(vth, uint64(n+1), make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		lines, fences := vth.Stats.FlushedLines-before.FlushedLines, vth.Stats.Fences-before.Fences
		if want := recordLines(uint64(ref)); lines != want || fences != 1 {
			t.Errorf("vlog.Append of %d bytes: %d lines, %d fences; want %d, 1", n, lines, fences, want)
		}
	}
}
