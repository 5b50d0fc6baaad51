package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/client"
	"repro/store"
	"repro/wire"
)

// End-to-end coverage of the byte-string-keyed ops: client → wire →
// server → store → vlog and back, including the adversarial shapes the
// key layout has to survive (shared 8-byte prefixes, 1 KiB keys,
// pagination cursors).

// TestByteKeyCapsAligned pins the store's byte-key limits to the wire's:
// the store must never accept a key or value the protocol cannot serve.
func TestByteKeyCapsAligned(t *testing.T) {
	if store.MaxKey != wire.MaxKey {
		t.Fatalf("store.MaxKey %d != wire.MaxKey %d: embedded stores could hold unservable keys",
			store.MaxKey, wire.MaxKey)
	}
	if store.MaxKVValue != wire.MaxKValue {
		t.Fatalf("store.MaxKVValue %d != wire.MaxKValue %d: embedded stores could hold unservable values",
			store.MaxKVValue, wire.MaxKValue)
	}
}

func TestByteKeyRoundTrip(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(7))
	want := map[string][]byte{}
	key := func(i int) []byte {
		switch i % 4 {
		case 0: // short unique
			return []byte(fmt.Sprintf("k%04d", i))
		case 1: // shared 8-byte prefix, differ past it
			return []byte(fmt.Sprintf("sameprefix-%04d", i))
		case 2: // binary, leading zero byte
			return append([]byte{0x00, 0xff}, byte(i), byte(i>>8))
		default: // long key
			k := bytes.Repeat([]byte{byte(i)}, 100+i%200)
			k[0] = 'L' // keep it distinct from the binary class
			return k
		}
	}
	for i := 0; i < 300; i++ {
		k := key(i)
		v := make([]byte, rng.Intn(2000))
		rng.Read(v)
		if err := c.PutKV(context.Background(), k, v); err != nil {
			t.Fatalf("PutKV %q: %v", k, err)
		}
		want[string(k)] = v
	}
	for k, v := range want {
		got, ok, err := c.GetKV(context.Background(), []byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %q: ok=%v err=%v (%d bytes, want %d)", k, ok, err, len(got), len(v))
		}
	}
	// Miss, empty value, delete.
	if _, ok, err := c.GetKV(context.Background(), []byte("never written")); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	if err := c.PutKV(context.Background(), []byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.GetKV(context.Background(), []byte("empty")); err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty value: %q ok=%v err=%v", got, ok, err)
	}
	if ok, err := c.DeleteKV(context.Background(), []byte("empty")); !ok || err != nil {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := c.GetKV(context.Background(), []byte("empty")); ok {
		t.Fatal("key survives delete")
	}
	if ok, err := c.DeleteKV(context.Background(), []byte("empty")); ok || err != nil {
		t.Fatalf("re-delete: ok=%v err=%v", ok, err)
	}
}

// TestByteKeyLimitsOverWire drives the extreme shapes through the full
// stack: a 1 KiB (MaxKey) key, a MaxKValue value under that key, and the
// client-side encode rejections just past both caps.
func TestByteKeyLimitsOverWire(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	maxKey := bytes.Repeat([]byte{0xee}, wire.MaxKey)
	maxVal := bytes.Repeat([]byte{0x5a}, wire.MaxKValue)
	if err := c.PutKV(context.Background(), maxKey, maxVal); err != nil {
		t.Fatalf("max key+value PutKV: %v", err)
	}
	got, ok, err := c.GetKV(context.Background(), maxKey)
	if err != nil || !ok || !bytes.Equal(got, maxVal) {
		t.Fatalf("max key+value GetKV: ok=%v err=%v len=%d", ok, err, len(got))
	}
	// The max-shaped pair must also survive a scan page.
	pairs, err := c.ScanKV(context.Background(), maxKey, maxKey, 0)
	if err != nil || len(pairs) != 1 || !bytes.Equal(pairs[0].Key, maxKey) || !bytes.Equal(pairs[0].Val, maxVal) {
		t.Fatalf("max pair ScanKV: %d pairs err=%v", len(pairs), err)
	}

	// Just past the caps: rejected at encode time, connection stays up.
	if err := c.PutKV(context.Background(), append(maxKey, 0xee), nil); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := c.PutKV(context.Background(), []byte("k"), make([]byte, wire.MaxKValue+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
	if err := c.PutKV(context.Background(), nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, ok, err := c.GetKV(context.Background(), maxKey); err != nil || !ok {
		t.Fatalf("connection unusable after encode rejections: ok=%v err=%v", ok, err)
	}
}

func TestByteKeyScanPagination(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 400 keys, every pair of neighbours sharing an 8-byte prefix, plus a
	// deliberate empty-adjacent pair (k and k+"\x00") the cursor must split
	// correctly.
	var keys [][]byte
	for i := 0; i < 400; i++ {
		keys = append(keys, []byte(fmt.Sprintf("page-%03d", i/2)+string(rune('a'+i%2))))
	}
	keys = append(keys, []byte("page-edge"), []byte("page-edge\x00"))
	for i, k := range keys {
		if err := c.PutKV(context.Background(), k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	lo := []byte("page-")
	for {
		pairs, err := c.ScanKV(context.Background(), lo, []byte("page-\xff"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 {
			break
		}
		for i, p := range pairs {
			if i > 0 && bytes.Compare(pairs[i-1].Key, p.Key) >= 0 {
				t.Fatalf("scan out of order at %q", p.Key)
			}
			got = append(got, append([]byte(nil), p.Key...))
		}
		last := pairs[len(pairs)-1].Key
		lo = append(append([]byte(nil), last...), 0x00)
	}
	if len(got) != len(keys) {
		t.Fatalf("paged scan visited %d keys, want %d", len(got), len(keys))
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("merged pages out of order at %d", i)
		}
	}
}

// TestByteKeyScanByteBudget stores values big enough that the response
// byte budget, not the pair cap, ends each page; paging must still visit
// every key exactly once.
func TestByteKeyScanByteBudget(t *testing.T) {
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
	for i := 0; i < n; i++ {
		if err := c.PutKV(context.Background(), []byte(fmt.Sprintf("budget-%02d", i)), big); err != nil {
			t.Fatal(err)
		}
	}
	seen, pages := 0, 0
	lo := []byte("budget-")
	for {
		pairs, err := c.ScanKV(context.Background(), lo, []byte("budget-\xff"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 {
			break
		}
		pages++
		for _, p := range pairs {
			if !bytes.Equal(p.Val, big) {
				t.Fatalf("byte-budget scan corrupted value at key %q", p.Key)
			}
		}
		seen += len(pairs)
		lo = append(append([]byte(nil), pairs[len(pairs)-1].Key...), 0x00)
	}
	if seen != n {
		t.Fatalf("budgeted scan visited %d keys, want %d", seen, n)
	}
	if pages < 2 {
		t.Fatalf("byte budget never split the pages (%d pages for %d x %d KiB)", pages, n, len(big)>>10)
	}
}

func TestByteKeyPipelined(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 500
	key := func(i int) []byte { return []byte(fmt.Sprintf("pipe-%04d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i%97+1) }
	calls := make([]*client.Call, 0, n)
	for i := 0; i < n; i++ {
		calls = append(calls, c.PutKVAsync(key(i), val(i)))
	}
	for _, call := range calls {
		if err := call.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	gets := make([]*client.Call, 0, n)
	for i := 0; i < n; i++ {
		gets = append(gets, c.GetKVAsync(key(i)))
	}
	for i, call := range gets {
		if err := call.Wait(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(call.Resp.VVal, val(i)) {
			t.Fatalf("pipelined GetK %d mismatch", i)
		}
	}
}

// TestByteKeyMixedAPIRejected drives a uint64-API write and a byte-key
// read whose packed prefix collides with it: the store must refuse with a
// clear error rather than misparse the fixed-width record as a bucket.
func TestByteKeyMixedAPIRejected(t *testing.T) {
	ts := startServer(t, store.Options{Shards: 1}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := []byte("mixedkey") // exactly 8 bytes: its packed prefix is the word below
	word := store.PackPrefix(key)
	if err := c.PutBytes(context.Background(), word, []byte("written fixed-width")); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.GetKV(context.Background(), key)
	var re *client.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("GetKV of uint64-API prefix: err = %v, want RemoteError", err)
	}
	// The varlen API still reads its own record.
	if v, ok, err := c.GetBytes(context.Background(), word); err != nil || !ok || !bytes.Equal(v, []byte("written fixed-width")) {
		t.Fatalf("GetBytes after GetKV attempt: %q %v %v", v, ok, err)
	}
}
