package client

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/wire"
)

// poolServer accepts any number of connections and answers every request
// with StatusOK until the listener is closed. It returns the accepted
// server-side conns through accepted so a test can kill one.
func poolServer(t *testing.T) (addr string, accepted <-chan net.Conn, closeLn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan net.Conn, 16)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			ch <- nc
			go func(nc net.Conn) {
				var scratch, out []byte
				for {
					body, err := wire.ReadFrame(nc, wire.MaxFrame, scratch)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(body)
					if err != nil {
						return
					}
					scratch = body[:0]
					out = wire.MustAppendResponse(out[:0], &wire.Response{
						ID: req.ID, Op: req.Op, Status: wire.StatusOK,
					})
					if _, err := nc.Write(out); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String(), ch, func() { ln.Close() }
}

// killOneConn closes the server side of one pooled connection and waits
// until the client notices, returning the dead *Conn. It snapshots the
// pool's conns up front: the background redial loop may swap the dead one
// out of its slot at any moment.
func killOneConn(t *testing.T, p *Pool, victim net.Conn) *Conn {
	t.Helper()
	originals := make([]*Conn, p.Size())
	for i := range p.conns {
		originals[i] = p.conns[i].Load()
	}
	victim.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no conn observed the reset")
		}
		for _, c := range originals {
			c.Put(context.Background(), 1, 1) // drive traffic so the failure surfaces
			if c.Err() != nil {
				return c
			}
		}
	}
}

// TestPoolSkipsDeadConn pins the eviction fix: after one of a pool's
// connections fails terminally, Conn() must stop handing it out instead of
// round-robining callers onto it forever.
func TestPoolSkipsDeadConn(t *testing.T) {
	addr, accepted, closeLn := poolServer(t)
	defer closeLn()

	p, err := DialPool(addr, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	nc0 := <-accepted
	<-accepted
	dead := killOneConn(t, p, nc0)

	for i := 0; i < 20; i++ {
		c := p.Conn()
		if c == dead {
			t.Fatalf("Conn() returned the dead connection on pick %d", i)
		}
		if err := c.Put(context.Background(), uint64(i), uint64(i)); err != nil {
			t.Fatalf("healthy conn failed: %v", err)
		}
	}
}

// TestPoolAllDeadFallsBack verifies the all-dead fallback still returns a
// connection (whose calls surface the terminal error) rather than spinning
// or panicking. The listener is closed too, so the background redial loop
// cannot resurrect anything.
func TestPoolAllDeadFallsBack(t *testing.T) {
	addr, accepted, closeLn := poolServer(t)

	p, err := DialPool(addr, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	nc0, nc1 := <-accepted, <-accepted
	nc0.Close()
	nc1.Close()
	closeLn()

	deadline := time.Now().Add(5 * time.Second)
	for {
		allDead := true
		for i := range p.conns {
			c := p.conns[i].Load()
			c.Put(context.Background(), 1, 1)
			if c.Err() == nil {
				allDead = false
			}
		}
		if allDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("conns never observed the reset")
		}
	}
	if c := p.Conn(); c == nil {
		t.Fatal("Conn() returned nil with every conn dead")
	}
	if err := p.Conn().Put(context.Background(), 1, 1); err == nil {
		t.Fatal("Put on an all-dead pool unexpectedly succeeded")
	}
}

// TestPoolRedialsDeadConn: the background loop replaces a terminally-failed
// conn with a fresh dial, restoring the pool to full strength without any
// caller intervention.
func TestPoolRedialsDeadConn(t *testing.T) {
	addr, accepted, closeLn := poolServer(t)
	defer closeLn()

	p, err := DialPool(addr, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	nc0 := <-accepted
	<-accepted
	dead := killOneConn(t, p, nc0)

	deadline := time.Now().Add(10 * time.Second)
	for {
		healthy := 0
		for i := range p.conns {
			c := p.conns[i].Load()
			if c != dead && c.Err() == nil {
				healthy++
			}
		}
		if healthy == p.Size() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("redial loop never replaced the dead conn")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The replacement carries traffic.
	select {
	case <-accepted:
	case <-time.After(time.Second):
		t.Fatal("no redialed connection reached the server")
	}
	for i := 0; i < 10; i++ {
		if err := p.Conn().Put(context.Background(), uint64(i), 1); err != nil {
			t.Fatalf("Put on redialed pool: %v", err)
		}
	}
}
