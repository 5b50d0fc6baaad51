package server

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/client"
	"repro/store"
	"repro/wire"
)

// End-to-end coverage of the varlen-value ops: client → wire → server →
// store → vlog and back.

func TestVarlenRoundTrip(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(1))
	want := map[uint64][]byte{}
	for i := 0; i < 300; i++ {
		k := rng.Uint64()%100000 + 1
		v := make([]byte, rng.Intn(2000))
		rng.Read(v)
		if err := c.PutBytes(context.Background(), k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for k, v := range want {
		got, ok, err := c.GetBytes(context.Background(), k)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d: ok=%v err=%v (%d bytes, want %d)", k, ok, err, len(got), len(v))
		}
	}
	// Miss, empty value, delete.
	if _, ok, err := c.GetBytes(context.Background(), 1<<60); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	if err := c.PutBytes(context.Background(), 5555, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.GetBytes(context.Background(), 5555); err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty value: %q ok=%v err=%v", got, ok, err)
	}
	for k := range want {
		if ok, err := c.Delete(context.Background(), k); !ok || err != nil {
			t.Fatalf("delete %d: ok=%v err=%v", k, ok, err)
		}
		if _, ok, _ := c.GetBytes(context.Background(), k); ok {
			t.Fatalf("key %d survives delete", k)
		}
		break
	}
}

func TestVarlenPipelined(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 500
	val := func(i uint64) []byte {
		return bytes.Repeat([]byte{byte(i)}, int(i%97)+1)
	}
	calls := make([]*client.Call, 0, n)
	for i := uint64(1); i <= n; i++ {
		calls = append(calls, c.PutBytesAsync(i, val(i)))
	}
	for _, call := range calls {
		if err := call.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	gets := make([]*client.Call, 0, n)
	for i := uint64(1); i <= n; i++ {
		gets = append(gets, c.GetBytesAsync(i))
	}
	for i, call := range gets {
		if err := call.Wait(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(call.Resp.VVal, val(uint64(i)+1)) {
			t.Fatalf("pipelined GetV %d mismatch", i+1)
		}
	}
}

func TestVarlenScanPagination(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 400
	for i := uint64(1); i <= n; i++ {
		if err := c.PutBytes(context.Background(), i, bytes.Repeat([]byte{byte(i)}, int(i%50)+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Page through everything 64 pairs at a time.
	var got int
	lo := uint64(0)
	for {
		pairs, err := c.ScanBytes(context.Background(), lo, n, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 {
			break
		}
		for i, p := range pairs {
			want := bytes.Repeat([]byte{byte(p.Key)}, int(p.Key%50)+1)
			if !bytes.Equal(p.Val, want) {
				t.Fatalf("scan value mismatch at key %d", p.Key)
			}
			if i > 0 && pairs[i-1].Key >= p.Key {
				t.Fatalf("scan out of order at %d", p.Key)
			}
		}
		got += len(pairs)
		lo = pairs[len(pairs)-1].Key + 1
	}
	if got != n {
		t.Fatalf("paged scan visited %d keys, want %d", got, n)
	}
}

// TestVarlenScanByteBudget stores values big enough that the response
// byte budget, not the pair cap, ends each page; paging must still visit
// every key exactly once.
func TestVarlenScanByteBudget(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 40
	big := make([]byte, 64<<10) // 40 x 64 KiB >> one frame
	for i := range big {
		big[i] = byte(i * 7)
	}
	for i := uint64(1); i <= n; i++ {
		if err := c.PutBytes(context.Background(), i, big); err != nil {
			t.Fatal(err)
		}
	}
	seen, pages := 0, 0
	lo := uint64(0)
	for {
		pairs, err := c.ScanBytes(context.Background(), lo, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 {
			break
		}
		pages++
		for _, p := range pairs {
			if !bytes.Equal(p.Val, big) {
				t.Fatalf("byte-budget scan corrupted value at key %d", p.Key)
			}
		}
		seen += len(pairs)
		lo = pairs[len(pairs)-1].Key + 1
	}
	if seen != n {
		t.Fatalf("budgeted scan visited %d keys, want %d", seen, n)
	}
	if pages < 2 {
		t.Fatalf("byte budget never split the pages (%d pages for %d x %d KiB)", pages, n, len(big)>>10)
	}
}

func TestVarlenMixedAPIRejected(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put(context.Background(), 42, 12345); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.GetBytes(context.Background(), 42)
	var re *client.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("GetV of fixed-width key: err = %v, want RemoteError", err)
	}
	// The fixed-width API still reads its own key.
	if v, ok, err := c.Get(context.Background(), 42); err != nil || !ok || v != 12345 {
		t.Fatalf("fixed Get after varlen attempt: %d %v %v", v, ok, err)
	}
}

// TestValueCapsAligned pins store.MaxValue to wire.MaxValue: the store
// must never accept a value the protocol cannot serve.
func TestValueCapsAligned(t *testing.T) {
	if store.MaxValue != wire.MaxValue {
		t.Fatalf("store.MaxValue %d != wire.MaxValue %d: embedded stores could hold unservable values",
			store.MaxValue, wire.MaxValue)
	}
}

func TestVarlenMaxValueOverWire(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The wire cap is enforced client-side at encode time.
	if err := c.PutBytes(context.Background(), 1, make([]byte, wire.MaxValue+1)); err == nil {
		t.Fatal("oversized PutBytes succeeded")
	}
	// The largest legal value round-trips.
	maxVal := bytes.Repeat([]byte{0x5a}, wire.MaxValue)
	if err := c.PutBytes(context.Background(), 2, maxVal); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.GetBytes(context.Background(), 2)
	if err != nil || !ok || !bytes.Equal(got, maxVal) {
		t.Fatalf("max-size value: ok=%v err=%v len=%d", ok, err, len(got))
	}
}
