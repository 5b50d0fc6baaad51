package client

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a fixed set of Conns to one server that only picks connections:
// Conn hands them out round-robin, and every operation is a Conn method
// (pool.Conn().Get(ctx, k)). With many goroutines sharing a Pool, each
// connection carries a slice of the pipelined traffic, spreading both
// client and server per-connection work across cores.
//
// The Pool also owns connection lifecycle: a terminally-failed conn is
// skipped by Conn() immediately and replaced in the background by a redial
// loop with exponential backoff + jitter, so a transient server outage
// costs the affected calls, not the slot. Nothing is retried for the
// caller; Retryable says which failures are worth reissuing.
type Pool struct {
	addr string
	opts Options

	conns []atomic.Pointer[Conn]
	next  atomic.Uint64

	stop     chan struct{}
	redialed sync.WaitGroup
}

// redial pacing: first retry almost immediately (a restarting server is
// usually back fast), then exponential out to a steady 2s probe.
const (
	redialBase = 50 * time.Millisecond
	redialMax  = 2 * time.Second
)

// DialPool opens n connections to addr. On any dial failure the already-
// opened connections are closed and the error returned.
func DialPool(addr string, n int, opts Options) (*Pool, error) {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		addr:  addr,
		opts:  opts,
		conns: make([]atomic.Pointer[Conn], n),
		stop:  make(chan struct{}),
	}
	for i := range p.conns {
		c, err := Dial(addr, opts)
		if err != nil {
			for j := 0; j < i; j++ {
				p.conns[j].Load().Close()
			}
			return nil, err
		}
		p.conns[i].Store(c)
	}
	p.redialed.Add(1)
	go p.redialLoop()
	return p, nil
}

// Conn returns the next connection round-robin, skipping connections that
// have terminally failed (Err != nil): a dead conn instantly fails every
// call issued on it, so handing it out would turn one broken socket into a
// permanent error stripe across the workload. (The redial loop replaces
// the dead conn in the background.) If every connection is dead the
// round-robin pick is returned anyway — its terminal error is the most
// useful thing the caller can see. Callers needing request ordering should
// pin one Conn rather than going through the Pool.
func (p *Pool) Conn() *Conn {
	start := p.next.Add(1)
	n := uint64(len(p.conns))
	for i := uint64(0); i < n; i++ {
		if c := p.conns[(start+i)%n].Load(); c.Err() == nil {
			return c
		}
	}
	return p.conns[start%n].Load()
}

// redialLoop watches for terminally-failed connections and replaces them.
// The scan interval backs off exponentially (with jitter) while redials
// keep failing — a down server gets a 2s probe, not a hammer — and snaps
// back to the base interval the moment everything is healthy again.
func (p *Pool) redialLoop() {
	defer p.redialed.Done()
	attempt := 0
	for {
		select {
		case <-p.stop:
			return
		case <-time.After(backoff(attempt, redialBase, redialMax)):
		}
		allHealthy := true
		for i := range p.conns {
			old := p.conns[i].Load()
			if old.Err() == nil {
				continue
			}
			nc, err := Dial(p.addr, p.opts)
			if err != nil {
				allHealthy = false
				continue
			}
			p.conns[i].Store(nc)
			old.Close() // fast: its calls already failed with the terminal error
		}
		if allHealthy {
			attempt = 0
		} else if attempt < 10 {
			attempt++
		}
	}
}

// Size returns the number of connections.
func (p *Pool) Size() int { return len(p.conns) }

// Close stops the redial loop, then drains and closes every connection.
func (p *Pool) Close() error {
	close(p.stop)
	p.redialed.Wait()
	for i := range p.conns {
		p.conns[i].Load().Close()
	}
	return nil
}
