package server

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/store"
	"repro/wire"
)

// readResponses decodes frames off nc until it has n of them or the stream
// ends, checking that no id is answered twice.
func readResponses(t *testing.T, nc net.Conn, n int) (resps []wire.Response, end error) {
	t.Helper()
	seen := make(map[uint64]bool)
	for len(resps) < n {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		body, err := wire.ReadFrame(nc, wire.MaxFrame, nil)
		if err != nil {
			return resps, err
		}
		resp, err := wire.DecodeResponse(body)
		if err != nil {
			t.Fatalf("response %d undecodable: %v", len(resps), err)
		}
		if seen[resp.ID] {
			t.Fatalf("id %d answered twice", resp.ID)
		}
		seen[resp.ID] = true
		resps = append(resps, resp)
	}
	return resps, nil
}

// TestBatchLargerThanSlabLeavesInPieces: a batch whose responses exceed the
// slab bound is written in several Writes, none above the bound plus one
// response, and every id is still answered exactly once.
func TestBatchLargerThanSlabLeavesInPieces(t *testing.T) {
	ln := newPipeListener()
	ts := startServerOn(t, ln, store.Options{}, Options{})
	c := ln.client(t)
	const nVals = 8
	val := make([]byte, 20<<10)
	for k := uint64(1); k <= nVals; k++ {
		val[0] = byte(k)
		if err := c.PutBytes(context.Background(), k, val); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	loaded := ts.srv.Stats()

	// One Write carries the whole burst, so it is one batch: 40 GetV of
	// 20 KiB each and a ScanV of all eight values in the middle.
	const n = 41
	var out []byte
	var err error
	for id := uint64(1); id <= n; id++ {
		req := wire.Request{ID: id, Op: wire.OpGetV, Key: id%nVals + 1}
		if id == 20 {
			req = wire.Request{ID: id, Op: wire.OpScanV, Lo: 0, Hi: ^uint64(0)}
		}
		if out, err = wire.AppendRequest(out, &req); err != nil {
			t.Fatal(err)
		}
	}
	peer, tap := ln.dial(t)
	defer peer.Close()
	go peer.Write(out)

	resps, err := readResponses(t, peer, n)
	if err != nil {
		t.Fatalf("after %d/%d responses: %v", len(resps), n, err)
	}
	maxResp := 0
	for _, r := range resps {
		size := len(r.VVal)
		for _, kv := range r.VPairs {
			size += len(kv.Val) + 12
		}
		if r.Status != wire.StatusOK || size < len(val) {
			t.Fatalf("id %d: status %v, %d payload bytes", r.ID, r.Status, size)
		}
		maxResp = max(maxResp, size+64)
	}
	writes := tap.writeSizes()
	total := 0
	for _, w := range writes {
		total += w
		if w > slabFlush+maxResp {
			t.Errorf("a single Write of %d bytes, want <= slab bound %d + one response %d", w, slabFlush, maxResp)
		}
	}
	if batches := ts.srv.Stats().ReadBatches - loaded.ReadBatches; batches != 1 || len(writes) < 2 {
		t.Errorf("%d response bytes left in %d Writes from %d batches, want several Writes from 1 batch",
			total, len(writes), batches)
	}
	t.Logf("%d bytes in %d writes: %v", total, len(writes), writes)
}

// TestMalformedFrameMidBatch: a malformed frame in the middle of a buffered
// batch. Every request decoded before it is executed and answered, then
// comes the StatusErr carrying the id that survived, then the server hangs
// up; nothing after the bad frame runs.
func TestMalformedFrameMidBatch(t *testing.T) {
	ln := newPipeListener()
	ts := startServerOn(t, ln, store.Options{}, Options{})
	const good = 10
	var out []byte
	var err error
	for id := uint64(1); id <= good; id++ {
		if out, err = wire.AppendRequest(out, &wire.Request{ID: id, Op: wire.OpPut, Key: id, Val: id * 5}); err != nil {
			t.Fatal(err)
		}
	}
	// A well-framed body (length and CRC right) whose opcode is unknown.
	out = append(out, rawFrame(append(binary.BigEndian.AppendUint64(nil, 0xbad), 0xee))...)
	for id := uint64(100); id < 105; id++ {
		if out, err = wire.AppendRequest(out, &wire.Request{ID: id, Op: wire.OpPut, Key: id, Val: 1}); err != nil {
			t.Fatal(err)
		}
	}

	peer, _ := ln.dial(t)
	defer peer.Close()
	go peer.Write(out)
	resps, end := readResponses(t, peer, good+2)
	if !errors.Is(end, io.EOF) {
		t.Fatalf("stream ended with %v after %d responses, want EOF after %d", end, len(resps), good+1)
	}
	if len(resps) != good+1 {
		t.Fatalf("%d responses, want %d executed and 1 error", len(resps), good)
	}
	for i, r := range resps[:good] {
		if r.ID != uint64(i+1) || r.Status != wire.StatusOK {
			t.Fatalf("response %d = id %d status %v, want id %d OK", i, r.ID, r.Status, i+1)
		}
	}
	if last := resps[good]; last.ID != 0xbad || last.Status != wire.StatusErr {
		t.Fatalf("last response = id %#x status %v, want id 0xbad StatusErr", last.ID, last.Status)
	}
	st := ts.srv.Stats()
	if st.Resets != 1 || st.Errors != 1 || st.InlineOps != good || st.Ops != good+1 {
		t.Fatalf("Resets %d Errors %d InlineOps %d Ops %d, want 1 1 %d %d",
			st.Resets, st.Errors, st.InlineOps, st.Ops, good, good+1)
	}
	ss := ts.st.NewSession()
	defer ss.Close()
	if n, err := ss.Len(); err != nil || n != good {
		t.Fatalf("store holds %d keys (%v), want the %d put before the bad frame", n, err, good)
	}
}

// TestShutdownMidBatchAnswersEveryFrameRead races a graceful Shutdown
// against a connection in the middle of a deep pipeline (run under -race in
// CI): every frame the server had read is answered, none twice, and
// Store.Close right after Shutdown finds no session in flight. It runs over
// a pipe because a TCP socket closed with unread requests in its receive
// buffer resets, and the reset may destroy responses already written.
func TestShutdownMidBatchAnswersEveryFrameRead(t *testing.T) {
	ln := newPipeListener()
	ts := startServerOn(t, ln, store.Options{}, Options{})
	nc, _ := ln.dial(t)
	defer nc.Close()

	const n = 20000
	var out []byte
	var err error
	for id := uint64(1); id <= n; id++ {
		if out, err = wire.AppendRequest(out, &wire.Request{ID: id, Op: wire.OpPut, Key: id, Val: id}); err != nil {
			t.Fatal(err)
		}
	}
	frameLen := len(out) / n
	go nc.Write(out) // fails part-way once the server hangs up

	type result struct {
		resps []wire.Response
		end   error
	}
	got := make(chan result, 1)
	go func() {
		resps, end := readResponses(t, nc, n+1)
		got <- result{resps, end}
	}()

	// Let the loop get going, then pull the plug mid-stream.
	for ts.srv.Stats().Ops < 500 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := ts.srv.Stats()
	if st.ConnsLive != 0 {
		t.Fatalf("%d connections live after Shutdown", st.ConnsLive)
	}
	if err := ts.st.Close(); err != nil {
		t.Fatal(err)
	}

	r := <-got
	if r.end == nil {
		t.Fatal("the whole pipeline was answered; Shutdown never raced it")
	}
	// Every frame read (BytesIn counts whole decoded frames) was executed
	// and answered: the client holds exactly that many distinct ids, and
	// since execution is in arrival order they are the first ones sent.
	read := int(st.BytesIn) / frameLen
	if len(r.resps) != read || int(st.Ops) != read {
		t.Fatalf("server read %d frames, served %d, client got %d responses (stream end: %v)",
			read, st.Ops, len(r.resps), r.end)
	}
	for _, resp := range r.resps {
		if resp.ID == 0 || resp.ID > uint64(read) || resp.Status != wire.StatusOK {
			t.Fatalf("response id %d status %v outside the %d frames read", resp.ID, resp.Status, read)
		}
	}
	t.Logf("%d of %d frames read and answered across the shutdown", read, n)
}
