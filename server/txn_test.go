package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/client"
	"repro/store"
	"repro/wire"
)

// End-to-end coverage of OpTxn (protocol revision 4): client transaction
// builder → wire → server → store redo-log commit and back.

func TestTxnOverWire(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Seed state the transaction will overwrite and delete.
	if err := c.Put(context.Background(), 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), 200, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.PutKV(context.Background(), []byte("seed-over"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutKV(context.Background(), []byte("seed-del"), []byte("doomed")); err != nil {
		t.Fatal(err)
	}

	var tx client.Txn
	tx.Put(100, 11).Delete(200).Put(300, 33)
	bigVal := bytes.Repeat([]byte{0x42}, 5000)
	tx.PutKV([]byte("txn-key"), bigVal).
		PutKV([]byte("seed-over"), []byte("new")).
		DeleteKV([]byte("seed-del"))
	if tx.Len() != 6 {
		t.Fatalf("Len = %d, want 6", tx.Len())
	}
	if err := c.CommitTxn(context.Background(), &tx); err != nil {
		t.Fatalf("commit: %v", err)
	}

	if v, ok, _ := c.Get(context.Background(), 100); !ok || v != 11 {
		t.Fatalf("overwrite: v=%d ok=%v", v, ok)
	}
	if _, ok, _ := c.Get(context.Background(), 200); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok, _ := c.Get(context.Background(), 300); !ok || v != 33 {
		t.Fatalf("insert: v=%d ok=%v", v, ok)
	}
	if v, ok, _ := c.GetKV(context.Background(), []byte("txn-key")); !ok || !bytes.Equal(v, bigVal) {
		t.Fatalf("byte-key insert: ok=%v len=%d", ok, len(v))
	}
	if v, ok, _ := c.GetKV(context.Background(), []byte("seed-over")); !ok || string(v) != "new" {
		t.Fatalf("byte-key overwrite: %q ok=%v", v, ok)
	}
	if _, ok, _ := c.GetKV(context.Background(), []byte("seed-del")); ok {
		t.Fatal("byte-key delete lost")
	}

	// Empty transactions are a client-side no-op.
	var empty client.Txn
	if err := c.CommitTxn(context.Background(), &empty); err != nil {
		t.Fatalf("empty commit: %v", err)
	}
	// Reset enables builder reuse.
	tx.Reset()
	if tx.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tx.Len())
	}
	tx.Put(400, 44)
	if err := c.CommitTxn(context.Background(), &tx); err != nil {
		t.Fatalf("context commit: %v", err)
	}
	if v, ok, _ := c.Get(context.Background(), 400); !ok || v != 44 {
		t.Fatalf("context commit lost: v=%d ok=%v", v, ok)
	}
}

// TestTxnPipelined issues several commits back to back without waiting,
// interleaved with reads, and checks they all land in order.
func TestTxnPipelined(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 20
	calls := make([]*client.Call, n)
	txs := make([]client.Txn, n) // write-sets captured by reference until each call completes
	for i := 0; i < n; i++ {
		txs[i].Put(7, uint64(i)).Put(uint64(1000+i), uint64(i)).
			PutKV([]byte("pipelined"), []byte(fmt.Sprintf("round-%02d", i)))
		calls[i] = c.CommitTxnAsync(&txs[i])
	}
	for i, call := range calls {
		if err := call.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if v, ok, _ := c.Get(context.Background(), 7); !ok || v != n-1 {
		t.Fatalf("key 7: v=%d ok=%v, want %d", v, ok, n-1)
	}
	if v, ok, _ := c.GetKV(context.Background(), []byte("pipelined")); !ok || string(v) != fmt.Sprintf("round-%02d", n-1) {
		t.Fatalf("pipelined byte key: %q ok=%v", v, ok)
	}
	for i := 0; i < n; i++ {
		if v, ok, _ := c.Get(context.Background(), uint64(1000+i)); !ok || v != uint64(i) {
			t.Fatalf("key %d: v=%d ok=%v", 1000+i, v, ok)
		}
	}
}

// TestTxnOversizedFailsOnlyThatCall: a write-set the encoder refuses
// (over MaxTxnOps) fails locally without poisoning the connection.
func TestTxnOversizedFailsOnlyThatCall(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var over client.Txn
	for i := 0; i <= wire.MaxTxnOps; i++ {
		over.Put(uint64(i), 1)
	}
	if err := c.CommitTxn(context.Background(), &over); !errors.Is(err, wire.ErrTooManyKV) {
		t.Fatalf("oversized commit: %v, want ErrTooManyKV", err)
	}
	// The connection still works.
	var ok client.Txn
	ok.Put(1, 10)
	if err := c.CommitTxn(context.Background(), &ok); err != nil {
		t.Fatalf("commit after local failure: %v", err)
	}
	if v, found, _ := c.Get(context.Background(), 1); !found || v != 10 {
		t.Fatalf("follow-up commit lost: v=%d ok=%v", v, found)
	}
}

// TestTxnTooLargeForRedoLog drives a server-side pre-flight refusal: the
// store's per-shard redo log is configured tiny, the write-set fits the
// wire but not the log, and the server must answer StatusErr with the
// store untouched.
func TestTxnTooLargeForRedoLog(t *testing.T) {
	ts := startServer(t, store.Options{TxnLogCap: 1 << 10}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var tx client.Txn
	tx.PutKV([]byte("fat"), bytes.Repeat([]byte{1}, 8<<10))
	err = c.CommitTxn(context.Background(), &tx)
	var re *client.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("over-capacity commit: %v, want RemoteError", err)
	}
	if _, ok, _ := c.GetKV(context.Background(), []byte("fat")); ok {
		t.Fatal("refused transaction left state behind")
	}
	// Small transactions still commit.
	var small client.Txn
	small.PutKV([]byte("thin"), []byte("fits"))
	if err := c.CommitTxn(context.Background(), &small); err != nil {
		t.Fatalf("small commit after refusal: %v", err)
	}
}

// TestTxnConcurrentCommits hammers commits from several connections —
// each connection owns disjoint keys plus one shared contended key — and
// checks the end state and server counters.
func TestTxnConcurrentCommits(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	const conns = 4
	rounds := 25
	if testing.Short() {
		rounds = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(ts.addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				var tx client.Txn
				tx.Put(uint64(10000+w), uint64(r)) // private
				tx.Put(55, uint64(w*1000+r))       // contended
				tx.PutKV([]byte(fmt.Sprintf("conn-%d", w)), []byte{byte(r)})
				if err := c.CommitTxn(context.Background(), &tx); err != nil {
					errs <- fmt.Errorf("conn %d round %d: %w", w, r, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for w := 0; w < conns; w++ {
		if v, ok, _ := c.Get(context.Background(), uint64(10000+w)); !ok || v != uint64(rounds-1) {
			t.Fatalf("conn %d private key: v=%d ok=%v", w, v, ok)
		}
		if v, ok, _ := c.GetKV(context.Background(), []byte(fmt.Sprintf("conn-%d", w))); !ok || v[0] != byte(rounds-1) {
			t.Fatalf("conn %d byte key: ok=%v", w, ok)
		}
	}
	// The contended key holds SOME writer's final-round value.
	v, ok, _ := c.Get(context.Background(), 55)
	if !ok || v%1000 != uint64(rounds-1) {
		t.Fatalf("contended key: v=%d ok=%v", v, ok)
	}
	if err := ts.st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTxnPoolCommit exercises the pool front door.
func TestTxnPoolCommit(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	p, err := client.DialPool(ts.addr, 2, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 6; i++ {
		var tx client.Txn
		tx.Put(uint64(i), uint64(i)*7).PutKV([]byte{byte('a' + i)}, []byte{byte(i)})
		if err := p.Conn().CommitTxn(context.Background(), &tx); err != nil {
			t.Fatalf("pool commit %d: %v", i, err)
		}
	}
	for i := 0; i < 6; i++ {
		v, ok, err := p.Conn().Get(context.Background(), uint64(i))
		if err != nil || !ok || v != uint64(i)*7 {
			t.Fatalf("key %d: v=%d ok=%v err=%v", i, v, ok, err)
		}
	}
	// A request is counted before its response is written, so every
	// commit above is already in the snapshot.
	if st := ts.srv.Stats(); st.Ops == 0 {
		t.Fatal("server counted no ops")
	}
}
