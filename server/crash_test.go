package server

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/client"
	"repro/internal/pmem"
	"repro/store"
)

// TestKillMidBatchThenReopen is the remote-traffic version of the store's
// crash campaign: a client streams a large PutBatch over the wire, and
// while the server is applying it the test takes adversarial crash images
// of every shard (pmem.CrashSim, random per-line survivor sets), then
// hard-kills the server. store.Reopen on the images must recover every
// committed key exactly and leave every in-flight-era key fully present or
// fully absent — the paper's failure-atomicity contract, now exercised
// through the network stack.
func TestKillMidBatchThenReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st, err := store.Open(store.Options{
		Shards:    4,
		ShardSize: 32 << 20,
		Mem:       pmem.Config{TrackCrashes: true},
		// A little write latency widens the mid-batch window the
		// images are taken in.
		Latency: store.LatencyOptions{Write: 200 * time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Committed phase: synchronous puts, each acknowledged (and therefore
	// durable) before the crash log starts.
	committed := map[uint64]uint64{}
	for i := uint64(1); i <= 2000; i++ {
		k := i * 0x9e3779b97f4a7c15 // spread across shards
		if err := c.Put(context.Background(), k, k^0x5a5a); err != nil {
			t.Fatal(err)
		}
		committed[k] = k ^ 0x5a5a
	}
	for i := 0; i < st.NumShards(); i++ {
		st.Pool(i).StartCrashLog()
	}

	// In-flight era: one big batch goes out, and we snapshot crash images
	// while the server is chewing on it. Window keys are disjoint from
	// committed ones (different derivation).
	window := map[uint64]uint64{}
	var batch []client.KV
	for i := uint64(1); i <= 8000; i++ {
		k := i<<20 | 0xABC00
		if _, dup := committed[k]; dup {
			continue
		}
		batch = append(batch, client.KV{Key: k, Val: k ^ 0xc3c3})
		window[k] = k ^ 0xc3c3
	}
	call := c.PutBatchAsync(batch[:len(batch)/2])
	call2 := c.PutBatchAsync(batch[len(batch)/2:])

	// Wait until the batch is demonstrably mid-application on at least
	// one shard, then crash every shard at a random point of its tape —
	// regularly inside FAST's shift sequence or FAIR's split.
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for i := 0; i < st.NumShards(); i++ {
			total += st.Pool(i).LogLen()
		}
		if total > 1000 || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	images := make([]*pmem.Pool, st.NumShards())
	for i := 0; i < st.NumShards(); i++ {
		pool := st.Pool(i)
		point := rng.Intn(pool.LogLen() + 1)
		images[i] = pool.CrashImage(point, pmem.CrashRandom, rng)
	}

	// Kill the server without draining; the client's outstanding calls
	// fail or succeed arbitrarily — the images above are the machine
	// state that "survived the power failure".
	srv.Close()
	<-done
	call.Wait()
	call2.Wait()
	c.Close()
	st.Close()

	re, err := store.Reopen(images, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.CheckInvariants(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
	rs := re.NewSession()
	defer rs.Close()
	for k, v := range committed {
		got, ok, err := rs.Get(k)
		if err != nil || !ok || got != v {
			t.Fatalf("lost committed key %d: (%d,%v,%v)", k, got, ok, err)
		}
	}
	survived, lost := 0, 0
	for k, v := range window {
		got, ok, err := rs.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case ok && got == v:
			survived++
		case ok:
			t.Fatalf("TORN write at key %d: got %d, want %d", k, got, v)
		default:
			lost++
		}
	}
	t.Logf("window writes: %d survived, %d atomically lost", survived, lost)

	// The recovered store serves again — including over a fresh server.
	srv2 := New(re, Options{})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve(ln2) }()
	c2, err := client.Dial(ln2.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 200; i++ {
		if err := c2.Put(context.Background(), i<<40|i, i); err != nil {
			t.Fatalf("post-recovery write over the wire: %v", err)
		}
	}
	c2.Close()
	srv2.Close()
	<-done2
}
