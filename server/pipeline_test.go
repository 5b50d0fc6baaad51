package server

import (
	"context"
	"testing"

	"repro/client"
	"repro/store"
	"repro/wire"
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

// TestGetRunsKeepArrivalOrder: a batch's consecutive Gets are answered by
// one store call, and the writes around a run still order it. One burst —
// one batch — of Put k=1, Get k, Get j, Put k=2, Get k, Delete j, Get j and
// then 40 Gets over every shard must read 1, j's value, 2, NotFound and the
// 40 values, each answer under its own id and in request order. On a closed
// store every Get of a run answers StatusClosed.
func TestGetRunsKeepArrivalOrder(t *testing.T) {
	const k, j, vj = 11, 12, 1200
	burst := []wire.Request{
		{Op: wire.OpPut, Key: k, Val: 1},
		{Op: wire.OpGet, Key: k},
		{Op: wire.OpGet, Key: j},
		{Op: wire.OpPut, Key: k, Val: 2},
		{Op: wire.OpGet, Key: k},
		{Op: wire.OpDelete, Key: j},
		{Op: wire.OpGet, Key: j},
	}
	const spread = 40
	for i := uint64(0); i < spread; i++ {
		burst = append(burst, wire.Request{Op: wire.OpGet, Key: 1000 + i})
	}
	encode := func(t *testing.T) []byte {
		var out []byte
		var err error
		for i := range burst {
			burst[i].ID = uint64(100 + i)
			if out, err = wire.AppendRequest(out, &burst[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	serve := func(t *testing.T, closed bool) ([]wire.Response, *testServer) {
		ln := newPipeListener()
		ts := startServerOn(t, ln, store.Options{}, Options{})
		ss := ts.st.NewSession()
		shards := map[int]bool{}
		for i := uint64(0); i < spread; i++ {
			shards[ts.st.ShardFor(1000+i)] = true
			if err := ss.Put(1000+i, 7*i); err != nil {
				t.Fatal(err)
			}
		}
		if len(shards) != ts.st.NumShards() {
			t.Fatalf("the %d Gets reach %d of %d shards", spread, len(shards), ts.st.NumShards())
		}
		if err := ss.Put(j, vj); err != nil {
			t.Fatal(err)
		}
		ss.Close()
		if closed {
			ts.st.Close()
		}
		before := ts.srv.Stats()
		peer, _ := ln.dial(t)
		defer peer.Close()
		go peer.Write(encode(t))
		resps, err := readResponses(t, peer, len(burst))
		if err != nil {
			t.Fatalf("after %d/%d responses: %v", len(resps), len(burst), err)
		}
		for i, r := range resps {
			if r.ID != burst[i].ID || r.Op != burst[i].Op {
				t.Fatalf("response %d is id %d %v, want id %d %v", i, r.ID, r.Op, burst[i].ID, burst[i].Op)
			}
		}
		if n := ts.srv.Stats().ReadBatches - before.ReadBatches; n != 1 {
			t.Fatalf("the burst arrived in %d batches, want 1", n)
		}
		return resps, ts
	}

	t.Run("open", func(t *testing.T) {
		resps, ts := serve(t, false)
		type answer struct {
			st  wire.Status
			val uint64
		}
		want := []answer{
			{wire.StatusOK, 0}, {wire.StatusOK, 1}, {wire.StatusOK, vj},
			{wire.StatusOK, 0}, {wire.StatusOK, 2}, {wire.StatusOK, 0}, {wire.StatusNotFound, 0},
		}
		for i := uint64(0); i < spread; i++ {
			want = append(want, answer{wire.StatusOK, 7 * i})
		}
		for i, r := range resps {
			if got := (answer{r.Status, r.Val}); got != want[i] {
				t.Errorf("response %d (%v of key %d) = %v %d, want %v %d",
					i, burst[i].Op, burst[i].Key, got.st, got.val, want[i].st, want[i].val)
			}
		}
		if gets := ts.srv.met.reqs[opSlot(wire.OpGet)].Load(); gets != 4+spread {
			t.Errorf("%d Gets counted, want %d", gets, 4+spread)
		}
	})

	t.Run("closed", func(t *testing.T) {
		resps, ts := serve(t, true)
		for i, r := range resps {
			if r.Status != wire.StatusClosed {
				t.Errorf("response %d (%v) = %v, want StatusClosed", i, burst[i].Op, r.Status)
			}
		}
		if errs := ts.srv.Stats().Errors; errs != uint64(len(burst)) {
			t.Errorf("%d errors counted, want one per request: %d", errs, len(burst))
		}
	})
}
