package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/client"
	"repro/store"
)

// TestAdmissionShedsBusy pins the global admission cap's whole contract at
// once: under pipelined bursts from several connections, far wider than
// MaxServerInflight, some requests are shed with StatusBusy (surfacing as
// client.ErrBusy, which is Retryable), every call still completes, and —
// the critical half — a shed write was NEVER executed: its key must be
// absent afterwards.
func TestAdmissionShedsBusy(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{MaxServerInflight: 2})
	const conns = 4
	const n = 4000
	var cs [conns]*client.Conn
	for i := range cs {
		c, err := client.Dial(ts.addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}
	c := cs[0]

	calls := make([]*client.Call, n)
	for i := 0; i < n; i++ {
		calls[i] = cs[i%conns].PutAsync(uint64(i+1), uint64(i+1)*3)
	}
	shed, applied := 0, 0
	for i, call := range calls {
		switch err := call.Wait(); {
		case err == nil:
			applied++
		case errors.Is(err, client.ErrBusy):
			if !client.Retryable(err) {
				t.Fatalf("ErrBusy not Retryable: %v", err)
			}
			shed++
		default:
			t.Fatalf("put %d: unexpected error class: %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed despite MaxServerInflight=2 under a 4000-deep pipeline on 4 connections")
	}
	if applied == 0 {
		t.Fatal("every request was shed; admission admitted nothing")
	}
	t.Logf("%d applied, %d shed", applied, shed)

	st := ts.srv.Stats()
	if st.Shed != uint64(shed) {
		t.Fatalf("Stats.Shed = %d, want %d", st.Shed, shed)
	}
	// Shed means never executed: acked keys present, shed keys absent.
	for i, call := range calls {
		key := uint64(i + 1)
		v, ok, err := c.Get(context.Background(), key)
		if err != nil {
			if errors.Is(err, client.ErrBusy) {
				// The verification Gets run under the same tiny cap.
				v, ok, err = c.Get(context.Background(), key)
			}
			if err != nil {
				t.Fatalf("verify Get(%d): %v", key, err)
			}
		}
		if call.Err == nil && (!ok || v != key*3) {
			t.Fatalf("acked put %d missing after burst (ok=%v v=%d)", key, ok, v)
		}
		if call.Err != nil && ok {
			t.Fatalf("shed put %d was executed anyway", key)
		}
	}

	if st.Shed == 0 {
		t.Fatal("Stats.Shed = 0 after observed shedding")
	}
}

// TestIdleTimeout: a connection with no traffic for Options.IdleTimeout is
// cut and counted, while a connection that keeps talking — even slowly —
// survives, and graceful shutdown still wins over an armed idle deadline.
func TestIdleTimeout(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{IdleTimeout: 400 * time.Millisecond})

	idle, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if err := idle.Put(context.Background(), 1, 1); err != nil {
		t.Fatal(err)
	}

	// The busy conn pings well inside the timeout for 1.2s; the idle conn
	// says nothing. Only the idle one may die.
	for i := 0; i < 12; i++ {
		time.Sleep(100 * time.Millisecond)
		if err := busy.Put(context.Background(), 2, uint64(i)); err != nil {
			t.Fatalf("active conn cut by idle timeout on ping %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for idle.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never cut")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := ts.srv.Stats(); st.IdleCloses == 0 {
		t.Fatalf("IdleCloses = 0 after an idle cut (stats %+v)", st)
	}
	// The busy connection outlives the cut.
	if err := busy.Put(context.Background(), 2, 12); err != nil {
		t.Fatalf("active conn after the idle cut: %v", err)
	}

	// Graceful shutdown must win over armed idle deadlines (beginDrain's
	// immediate deadline cannot be overwritten by the idle re-arm).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown with idle deadlines armed: %v", err)
	}
}

// TestNoSpaceOverWire: a server on a nearly-full store answers varlen
// writes with StatusNoSpace (client.ErrNoSpace, not Retryable), while
// reads, deletes, and fixed-width puts on the same connection keep working
// — degradation, not death.
func TestNoSpaceOverWire(t *testing.T) {
	ts := startServer(t,
		store.Options{Shards: 1, ShardSize: 4 << 20, ValueLogExtent: 256 << 10},
		Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	val := make([]byte, 8<<10)
	for i := range val {
		val[i] = byte(i)
	}
	var full error
	var lastOK uint64
	for k := uint64(1); k <= 4096; k++ {
		if err := c.PutBytes(context.Background(), k, val); err != nil {
			full = err
			break
		}
		lastOK = k
	}
	if full == nil {
		t.Fatal("4096 8KiB values fit a 4MiB shard; space admission never refused")
	}
	if !errors.Is(full, client.ErrNoSpace) {
		t.Fatalf("write on full store failed with %v, want ErrNoSpace", full)
	}
	if client.Retryable(full) {
		t.Fatal("ErrNoSpace classified Retryable; blind retries cannot fix a full pool")
	}

	// Degraded, not dead: reads, deletes, and the connection all survive.
	got, ok, err := c.GetBytes(context.Background(), lastOK)
	if err != nil || !ok || len(got) != len(val) {
		t.Fatalf("GetBytes(%d) on full store = (%d bytes, %v, %v)", lastOK, len(got), ok, err)
	}
	if ok, err := c.Delete(context.Background(), lastOK); err != nil || !ok {
		t.Fatalf("Delete on full store = (%v, %v)", ok, err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("connection died on a full store: %v", err)
	}
}
