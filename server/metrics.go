package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/wire"
)

// Per-opcode metric slots: slot 0 collects anything outside the known
// opcode range (undecodable frames), slots 1..numOps-1 mirror the wire
// opcodes. The retired opcode 6 never decodes, so its slot has no handler,
// counts nothing and is not registered. Arrays indexed by slot keep the
// hot-path record a bounds-checked array access, no map lookups.
const numOps = int(wire.OpTxn) + 1

func opSlot(op wire.Op) int {
	if op >= wire.OpGet && op <= wire.OpTxn {
		return int(op)
	}
	return 0
}

// opName is slot's op="…" label: its opcode's wire name, "other" for slot 0.
func opName(slot int) string {
	if slot == 0 {
		return "other"
	}
	return wire.Op(slot).String()
}

// Op classes summarize latency for /metrics' pmkv_server_request_seconds;
// each opcode's class is its row of the opcode table (ops). Slot 0 counts
// as read — it never carries store work.
const (
	classRead = iota
	classWrite
	classScan
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan"}

// serverMetrics is the server's always-on instrumentation: per-opcode
// request/error counters (striped by connection so the hot path never
// contends a shared line; always exact), per-opcode stage histograms
// splitting each request's life into queue wait (batch ingest to execution
// start — the requests ahead of it in its own batch), execution, and flush
// wait (response ready to write syscall), per-class whole-request
// histograms, and batch shape distributions (ingest batch size, flush size
// in bytes and responses). The latency histograms
// observe a 1-in-latencySampleMask+1 sample of requests — see serveOne —
// unless SlowOpThreshold is set. A Get's execute stage is its run's store
// call divided by the run's length (see conn.get).
type serverMetrics struct {
	reqs [numOps]*metrics.Striped
	errs [numOps]*metrics.Striped

	queue [numOps]*metrics.Histogram
	exec  [numOps]*metrics.Histogram
	flush [numOps]*metrics.Histogram

	class [numClasses]*metrics.Histogram

	readBatch  *metrics.Histogram
	flushBytes *metrics.Histogram
	flushPend  *metrics.Histogram

	// Slow-op log state: lastSlowLog is the mnow() time of the last emitted
	// line (CAS-guarded, at most one line per slowLogEvery), slowSuppressed
	// counts rate-limited drops since then, slowOps every request at or
	// over the threshold.
	slowOps        metrics.Counter
	slowSuppressed atomic.Uint64
	lastSlowLog    atomic.Int64
}

// slowLogEvery bounds slow-op log volume: at most one line per interval,
// with a suppressed count carried on the next line.
const slowLogEvery = int64(100 * time.Millisecond)

func newServerMetrics(stripes int) *serverMetrics {
	m := &serverMetrics{}
	for i := 0; i < numOps; i++ {
		m.reqs[i] = metrics.NewStriped(stripes)
		m.errs[i] = metrics.NewStriped(stripes)
		m.queue[i] = metrics.NewHistogram()
		m.exec[i] = metrics.NewHistogram()
		m.flush[i] = metrics.NewHistogram()
	}
	for i := 0; i < numClasses; i++ {
		m.class[i] = metrics.NewHistogram()
	}
	m.readBatch = metrics.NewHistogram()
	m.flushBytes = metrics.NewHistogram()
	m.flushPend = metrics.NewHistogram()
	// Seed the rate limiter one interval in the past so the first slow op
	// logs even inside the server's first interval.
	m.lastSlowLog.Store(-slowLogEvery)
	return m
}

// registerMetrics exposes the server's counters and histograms on reg.
// Counters are read-function-backed, so the writers stay plain atomics.
func (s *Server) registerMetrics(reg *metrics.Registry) {
	m := s.met
	for i := 0; i < numOps; i++ {
		if ops[i].serve == nil {
			continue
		}
		op := `op="` + opName(i) + `"`
		reg.Counter("pmkv_server_requests_total", op,
			"requests served, by opcode", m.reqs[i].Load)
		reg.Counter("pmkv_server_request_errors_total", op,
			"requests answered with an error status (StatusErr, StatusClosed, StatusNoSpace, StatusTxnIncomplete), protocol errors included, by opcode", m.errs[i].Load)
		reg.Histogram("pmkv_server_request_stage_seconds", op+`,stage="queue"`,
			"per-request pipeline stage latency (a Get executes in its run of consecutive Gets: its execute stage is the run's per-Get average)", 1e-9, m.queue[i])
		reg.Histogram("pmkv_server_request_stage_seconds", op+`,stage="execute"`,
			"per-request pipeline stage latency (a Get executes in its run of consecutive Gets: its execute stage is the run's per-Get average)", 1e-9, m.exec[i])
		reg.Histogram("pmkv_server_request_stage_seconds", op+`,stage="flush"`,
			"per-request pipeline stage latency (a Get executes in its run of consecutive Gets: its execute stage is the run's per-Get average)", 1e-9, m.flush[i])
	}
	for c := 0; c < numClasses; c++ {
		reg.Histogram("pmkv_server_request_seconds", `class="`+classNames[c]+`"`,
			"whole-request latency (queue wait + execution) by op class", 1e-9, m.class[c])
	}
	reg.Histogram("pmkv_server_read_batch_requests", "",
		"requests decoded per reader ingest batch", 1, m.readBatch)
	reg.Histogram("pmkv_server_flush_bytes", "",
		"encoded bytes per response write syscall", 1, m.flushBytes)
	reg.Histogram("pmkv_server_flush_responses", "",
		"responses coalesced per write syscall", 1, m.flushPend)

	reg.Counter("pmkv_server_bytes_total", `direction="in"`,
		"wire bytes moved, including frame headers", s.bytesIn.Load)
	reg.Counter("pmkv_server_bytes_total", `direction="out"`,
		"wire bytes moved, including frame headers", s.bytesOut.Load)
	reg.Gauge("pmkv_server_connections_live", "",
		"currently open connections", func() float64 { return float64(max(s.connsLive.Load(), 0)) })
	reg.Counter("pmkv_server_connections_total", "",
		"connections accepted since start", s.connsTotal.Load)
	reg.Counter("pmkv_server_read_batches_total", "",
		"ingest batches executed", func() uint64 { return m.readBatch.Snapshot().Count() })
	reg.Counter("pmkv_server_flushes_total", "",
		"response write syscalls", func() uint64 { return m.flushBytes.Snapshot().Count() })
	reg.Counter("pmkv_server_shed_requests_total", "",
		"requests answered StatusBusy at the MaxServerInflight admission cap", s.shed.Load)
	reg.Counter("pmkv_server_idle_closes_total", "",
		"connections closed by Options.IdleTimeout", s.idleCloses.Load)
	reg.Counter("pmkv_server_connection_resets_total", "",
		"connections that died mid-stream (reset, torn or corrupt frame, protocol error)", s.resets.Load)
	reg.Counter("pmkv_server_slow_requests_total", "",
		"requests at or over Options.SlowOpThreshold (queue + execute)", m.slowOps.Load)
}

// mnow is the server's monotonic clock: nanoseconds since the server was
// constructed. time.Since on a monotonic time.Time is allocation-free.
func (s *Server) mnow() int64 {
	return int64(time.Since(s.epoch))
}

// noteSlow logs one rate-limited line for a request that met
// Options.SlowOpThreshold, with its op, key, and queue/execute breakdown.
func (s *Server) noteSlow(req *wire.Request, slot int, queueNS, execNS, now int64) {
	m := s.met
	m.slowOps.Inc()
	if s.opts.Logf == nil {
		return
	}
	last := m.lastSlowLog.Load()
	if now-last < slowLogEvery || !m.lastSlowLog.CompareAndSwap(last, now) {
		m.slowSuppressed.Add(1)
		return
	}
	suppressed := m.slowSuppressed.Swap(0)
	extra := ""
	if suppressed > 0 {
		extra = fmt.Sprintf(" (+%d suppressed)", suppressed)
	}
	key := fmt.Sprint(req.Key)
	if len(req.KKey) > 0 {
		key = fmt.Sprintf("%q", req.KKey)
	}
	s.logf("server: slow op %s key=%s queue=%v execute=%v%s",
		opName(slot), key, time.Duration(queueNS), time.Duration(execNS), extra)
}
