// Package server serves a store.Store over TCP using the pmkv wire
// protocol (package wire): length-prefixed binary frames with client-chosen
// request ids, so one connection carries many in-flight requests and
// responses stream back as they complete.
//
// The data path is one rule: a connection is one goroutine that loops —
// block for a frame, decode every complete frame already buffered (at most
// maxIngest) into a batch, execute the batch in order on the connection's
// own store.Session, encode each response straight into one slab, write the
// slab when the batch ends (or when it passes 64 KiB on the way), repeat.
// FAST+FAIR reads take no lock and writes latch one node, so any number of
// sessions run side by side without a dispatcher; nothing stands between a
// frame and the store but its own connection's loop. A pipelined client is
// served in batches — one read and one write syscall per window — and an
// unpipelined one in batches of one. A connection's requests execute in
// arrival order, so same-key operations on one connection are totally
// ordered; the echoed id, not response order, remains the wire contract.
//
// Backpressure is TCP's own: a peer that stops reading blocks its
// connection's goroutine in Write, which stops it reading, which fills the
// peer's send buffer. It stalls nobody else, and what it can pin on the
// server is one batch of decoded requests plus one slab (64 KiB and one
// response at most). Options.IdleTimeout bounds both directions, so a dead
// peer does not hold even that forever.
//
// Shutdown is graceful by default: Shutdown stops the listeners, stops
// every connection reading, lets each loop execute and answer the frames it
// had already read, and only then returns — so the caller can Close the
// store knowing no request is in flight. A session that races the store's
// Close anyway fails with store.ErrClosed, which the server reports as
// wire.StatusClosed rather than tearing the connection.
package server

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/store"
)

// ErrServerClosed is returned by Serve after Shutdown or Close, mirroring
// net/http's contract.
var ErrServerClosed = errors.New("server: closed")

// Options configures a Server. The zero value is ready for use.
type Options struct {
	// Logf, when set, receives connection-level diagnostics (accept and
	// protocol failures) and the slow-op log. Default: silent.
	Logf func(format string, args ...any)
	// SlowOpThreshold, when positive, logs (via Logf, at most one line per
	// 100ms plus a suppressed count) every request whose queue wait plus
	// execution meets it, with its op, key and per-stage breakdown. It also
	// clocks every request instead of 1 in 8, since the slow-op log must
	// not sample. Default: disabled.
	SlowOpThreshold time.Duration
	// IdleTimeout closes a connection that makes no progress for this
	// long — no frame arrives, or a response write finds no room: an
	// abandoned peer (half-open TCP, a crashed client whose FIN never
	// arrived, a client that stopped reading) otherwise pins a connection
	// slot, its goroutine and its buffers forever. Closes are counted in
	// Stats.IdleCloses. 0 disables.
	IdleTimeout time.Duration
	// MaxServerInflight caps requests admitted for execution across ALL
	// connections, bounding their decoded, unanswered requests together
	// under a flood. Past it a request is shed: answered wire.StatusBusy
	// (counted in Stats.Shed) and never executed, so clients may safely
	// retry it after backing off. 0 disables.
	MaxServerInflight int
}

// Stats is a snapshot of the server's counters. Ops counts requests
// answered; Errors the subset answered with an error status (StatusErr,
// StatusClosed, StatusNoSpace, StatusTxnIncomplete), protocol errors
// included; bytes include frame headers. The batching counters expose how
// the data path behaved: ReadBatches is ingest batches executed
// (Ops/ReadBatches is the mean ingest batch size), InlineOps is requests
// executed (Ops less the shed and the undecodable), and Flushes is response
// write syscalls (Ops/Flushes is the mean coalescing factor). The failure
// counters track self-protection: Shed is requests answered StatusBusy at
// admission (never executed), IdleCloses is connections cut by
// Options.IdleTimeout, and Resets is connections that died mid-stream
// (reset, torn frame, corrupt frame, protocol error) rather than closing
// cleanly.
type Stats struct {
	Ops         uint64
	Errors      uint64
	BytesIn     uint64
	BytesOut    uint64
	ConnsLive   uint64
	ConnsTotal  uint64
	ReadBatches uint64
	InlineOps   uint64
	Flushes     uint64
	Shed        uint64
	IdleCloses  uint64
	Resets      uint64
}

// Server serves one store over any number of listeners.
type Server struct {
	st   *store.Store
	opts Options

	// epoch anchors mnow(), the int64 monotonic clock every stage
	// timestamp is measured on; met holds the always-on instrumentation
	// and reg renders it (server families plus the store's).
	epoch time.Time
	met   *serverMetrics
	reg   *metrics.Registry

	bytesIn, bytesOut atomic.Uint64
	connsTotal        atomic.Uint64
	connsLive         atomic.Int64
	shed              atomic.Uint64
	idleCloses        atomic.Uint64
	resets            atomic.Uint64
	admitted          atomic.Int64 // requests inside the MaxServerInflight window

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	shutdown  bool

	wg sync.WaitGroup // one per connection handler
}

// New returns a server over st. The server does not own the store: close the
// store after Shutdown returns (requests racing a premature store Close are
// answered with wire.StatusClosed).
func New(st *store.Store, opts Options) *Server {
	s := &Server{
		st:        st,
		opts:      opts,
		epoch:     time.Now(),
		met:       newServerMetrics(runtime.GOMAXPROCS(0)),
		reg:       metrics.NewRegistry(),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	s.registerMetrics(s.reg)
	st.RegisterMetrics(s.reg)
	return s
}

// Metrics returns the server's registry — every server family plus the
// store's, ready for Registry.Handler: Prometheus text format on /metrics,
// the one way to read a running server.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Stats snapshots the serve-side counters, read off the per-opcode counters
// and the unsampled batch histograms, not kept twice. Shed is loaded first:
// a shed request counts under its opcode before it counts as shed.
func (s *Server) Stats() Stats {
	m := s.met
	st := Stats{
		Shed:        s.shed.Load(),
		BytesIn:     s.bytesIn.Load(),
		BytesOut:    s.bytesOut.Load(),
		ConnsLive:   uint64(max(s.connsLive.Load(), 0)),
		ConnsTotal:  s.connsTotal.Load(),
		ReadBatches: m.readBatch.Snapshot().Count(),
		Flushes:     m.flushBytes.Snapshot().Count(),
		IdleCloses:  s.idleCloses.Load(),
		Resets:      s.resets.Load(),
	}
	// Slot 0 counts only undecodable frames; a decoded request was either
	// shed or executed.
	undecoded := m.reqs[0].Load()
	st.Ops, st.Errors = undecoded, m.errs[0].Load()
	for i := 1; i < numOps; i++ {
		st.Ops += m.reqs[i].Load()
		st.Errors += m.errs[i].Load()
	}
	st.InlineOps = st.Ops - undecoded - st.Shed
	return st
}

// tryAdmit claims one slot of the global MaxServerInflight window (always
// succeeding when the cap is off). The caller must releaseAdmit exactly
// once after the request executes; shed requests never held a slot.
func (s *Server) tryAdmit() bool {
	limit := int64(s.opts.MaxServerInflight)
	if limit <= 0 {
		return true
	}
	for {
		cur := s.admitted.Load()
		if cur >= limit {
			return false
		}
		if s.admitted.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (s *Server) releaseAdmit() {
	if s.opts.MaxServerInflight > 0 {
		s.admitted.Add(-1)
	}
}

// Serve accepts connections on ln until Shutdown or Close, then returns
// ErrServerClosed. Serve may be called on several listeners concurrently.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down {
				return ErrServerClosed
			}
			// Transient accept failures (fd exhaustion under heavy
			// client load, handshakes aborted before accept) must not
			// kill the accept loop: back off and retry.
			if retryableAccept(err) {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				s.logf("server: accept: %v; retrying in %v", err, backoff)
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		backoff = 0
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go c.handle()
	}
}

// retryableAccept reports whether an Accept error is transient — the
// listener is fine and the next Accept can succeed — rather than fatal.
// The explicit classification replaces the deprecated net.Error.Temporary
// check: a closed listener is always fatal, and the retryable set is named
// errnos (per-connection handshake aborts and resource exhaustion that
// clears as load drains) instead of whatever Temporary happened to cover.
func retryableAccept(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	return errors.Is(err, syscall.ECONNABORTED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EMFILE) ||
		errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.EINTR)
}

// Shutdown gracefully stops the server: it closes the listeners, stops
// reading new requests on every connection, waits for already-received
// requests to finish and their responses to flush, then closes the
// connections. If ctx expires first the remaining connections are aborted
// and ctx.Err() is returned. After Shutdown it is safe to Close the store.
func (s *Server) Shutdown(ctx context.Context) error {
	for _, c := range s.stopAccepting() {
		c.beginDrain()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.abortConns()
		<-done
		return ctx.Err()
	}
}

// Close aborts the server: listeners and connections are torn down without
// waiting for in-flight requests' responses to reach their clients.
func (s *Server) Close() error {
	s.abortConns()
	s.wg.Wait()
	return nil
}

// stopAccepting marks the server down, closes every listener, and returns a
// snapshot of the live connections.
func (s *Server) stopAccepting() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shutdown = true
	for ln := range s.listeners {
		ln.Close()
	}
	return slices.Collect(maps.Keys(s.conns))
}

func (s *Server) abortConns() {
	for _, c := range s.stopAccepting() {
		// Draining first, so the handler files the Close under "stopped
		// by the server", not under resets.
		c.beginDrain()
		c.nc.Close()
	}
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}
