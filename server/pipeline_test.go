package server

import (
	"context"
	"testing"

	"repro/client"
	"repro/store"
)

// TestSameKeyOrderingPipelined pins the ordering contract: one connection's
// requests execute in arrival order, so a pipelined burst of Puts to one key
// followed by a Get must observe the last Put — within a batch and across
// batch boundaries.
func TestSameKeyOrderingPipelined(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const key = 0xfeed
	const n = 4000
	calls := make([]*client.Call, 0, n)
	for i := uint64(1); i <= n; i++ {
		calls = append(calls, c.PutAsync(key, i))
		// Interleaved reads must each see some prefix's last write;
		// the final read must see the final write.
		if i%97 == 0 {
			want := i
			get := c.GetAsync(key)
			calls = append(calls, get)
			defer func(get *client.Call, want uint64) {
				if get.Resp.Val != want {
					t.Errorf("interleaved Get = %d, want %d", get.Resp.Val, want)
				}
			}(get, want)
		}
	}
	for _, call := range calls {
		if err := call.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := c.Get(context.Background(), key)
	if err != nil || !ok || v != n {
		t.Fatalf("final Get = (%d,%v,%v), want (%d,true,nil)", v, ok, err, n)
	}
}

// TestPipelineStatsBatchAndCoalesce checks the two amortizations batching
// exists for actually happen under pipelined load: multiple requests per
// ingest batch and multiple responses per write syscall, with every
// request accounted as executed.
func TestPipelineStatsBatchAndCoalesce(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 20000
	calls := make([]*client.Call, n)
	for i := range calls {
		calls[i] = c.PutAsync(uint64(i), uint64(i))
	}
	for _, call := range calls {
		if err := call.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := ts.srv.Stats()
	if st.Ops < n {
		t.Fatalf("Ops = %d, want >= %d", st.Ops, n)
	}
	// No admission cap and no malformed frame here, so nothing was
	// answered without executing.
	if st.InlineOps != st.Ops-st.Shed-st.Errors {
		t.Fatalf("InlineOps %d != Ops %d - Shed %d - protocol errors %d",
			st.InlineOps, st.Ops, st.Shed, st.Errors)
	}
	if st.ReadBatches == 0 || st.Flushes == 0 {
		t.Fatalf("zero ReadBatches (%d) or Flushes (%d)", st.ReadBatches, st.Flushes)
	}
	// A fully unbatched run would have one batch and one flush per op.
	// Sustained pipelining at depth n must do meaningfully better; 2x is
	// a deliberately loose floor (the measured factor is far higher).
	if st.ReadBatches > st.Ops/2 {
		t.Errorf("ingest batching ineffective: %d batches for %d ops", st.ReadBatches, st.Ops)
	}
	if st.Flushes > st.Ops/2 {
		t.Errorf("write coalescing ineffective: %d flushes for %d ops", st.Flushes, st.Ops)
	}
	t.Logf("ops=%d batches=%d (%.1f/batch) flushes=%d (%.1f/flush)",
		st.Ops, st.ReadBatches, float64(st.Ops)/float64(st.ReadBatches),
		st.Flushes, float64(st.Ops)/float64(st.Flushes))
}
