package client

import (
	"net"
	"testing"

	"repro/server"
	"repro/store"
)

// BenchmarkPipelinedGet drives Gets through a loopback server with 32
// calls in flight on one connection, reaping the oldest first — the
// client's side of the gated net_u64_pipelined workload. Its allocs/op
// counts both ends: the client's one Call and whatever the server adds.
func BenchmarkPipelinedGet(b *testing.B) {
	const (
		window = 32
		keys   = 1 << 12
	)
	st, err := store.Open(store.Options{Shards: 2, ShardSize: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ss := st.NewSession()
	for k := uint64(0); k < keys; k++ {
		if err := ss.Put(k, k+1); err != nil {
			b.Fatal(err)
		}
	}
	ss.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(st, server.Options{})
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	var ring [window]*Call
	reap := func(call *Call, key uint64) {
		if err := call.Wait(); err != nil {
			b.Fatal(err)
		}
		if call.Resp.Val != key+1 {
			b.Fatalf("Get(%d) = %d, want %d", key, call.Resp.Val, key+1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		if i >= window {
			reap(ring[slot], uint64(i-window)%keys)
		}
		ring[slot] = c.GetAsync(uint64(i) % keys)
	}
	for i := max(b.N-window, 0); i < b.N; i++ {
		reap(ring[i%window], uint64(i)%keys)
	}
}
