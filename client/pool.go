package client

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/wire"
)

// Pool is a fixed set of Conns to one server with round-robin dispatch.
// With many goroutines sharing a Pool, each connection carries a slice of
// the pipelined traffic, spreading both client and server per-connection
// work across cores.
//
// The Pool also owns connection lifecycle: a terminally-failed conn is
// skipped by Conn() immediately and replaced in the background by a redial
// loop with exponential backoff + jitter, so a transient server outage
// costs the affected calls, not the slot. With Options.RetryReads set,
// idempotent operations additionally retry across (fresh) connections when
// their failure is Retryable; writes never auto-retry.
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

// readAttempts bounds one RetryReads operation: the initial try plus three
// retries, ~35ms of backoff worst-case before the final attempt.
const readAttempts = 4

// read issues an idempotent request on the next connection and returns the
// completed call, retrying per Options.RetryReads: a Retryable failure is
// reissued, after a backoff, on whatever connection is next (fresh or
// redialed).
func (p *Pool) read(req *wire.Request) (*Call, error) {
	call, err := p.Conn().do(context.Background(), req)
	for a := 1; a < readAttempts && p.opts.RetryReads && Retryable(err); a++ {
		time.Sleep(backoff(a-1, 2*time.Millisecond, 50*time.Millisecond))
		call, err = p.Conn().do(context.Background(), req)
	}
	return call, err
}

// Get round-robins a Get (retried if Options.RetryReads).
func (p *Pool) Get(key uint64) (v uint64, ok bool, err error) {
	return u64Val(p.read(&wire.Request{Op: wire.OpGet, Key: key}))
}

// Put round-robins a Put. Writes are never auto-retried.
func (p *Pool) Put(key, val uint64) error { return p.Conn().Put(key, val) }

// Delete round-robins a Delete. Writes are never auto-retried.
func (p *Pool) Delete(key uint64) (bool, error) { return p.Conn().Delete(key) }

// PutBatch round-robins a chunked PutBatch. Writes are never auto-retried.
func (p *Pool) PutBatch(pairs []KV) error { return p.Conn().PutBatch(pairs) }

// Scan round-robins a Scan (retried if Options.RetryReads).
func (p *Pool) Scan(lo, hi uint64, max int) (kvs []KV, err error) {
	call, err := p.read(&wire.Request{Op: wire.OpScan, Lo: lo, Hi: hi, Max: scanMax(max)})
	return call.Resp.Pairs, err
}

// GetBytes round-robins a varlen Get (retried if Options.RetryReads).
func (p *Pool) GetBytes(key uint64) (val []byte, ok bool, err error) {
	return bytesVal(p.read(&wire.Request{Op: wire.OpGetV, Key: key}))
}

// PutBytes round-robins a varlen Put. Writes are never auto-retried.
func (p *Pool) PutBytes(key uint64, val []byte) error { return p.Conn().PutBytes(key, val) }

// ScanBytes round-robins a varlen Scan (retried if Options.RetryReads).
func (p *Pool) ScanBytes(lo, hi uint64, max int) (kvs []VKV, err error) {
	call, err := p.read(&wire.Request{Op: wire.OpScanV, Lo: lo, Hi: hi, Max: scanMax(max)})
	return call.Resp.VPairs, err
}

// Stats round-robins a Stats fetch (retried if Options.RetryReads).
func (p *Pool) Stats() (st wire.Stats, err error) {
	call, err := p.read(&wire.Request{Op: wire.OpStats})
	return call.Resp.Stats, err
}
