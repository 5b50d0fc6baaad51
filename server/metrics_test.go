package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/metrics"
	"repro/store"
)

// TestMetricsEndToEnd drives real traffic through a loopback server and
// checks the whole observability chain: the Prometheus rendering lints,
// the per-opcode and stage families carry the traffic, the store and pmem
// families are folded into the same registry, and the per-class
// whole-request histograms count every class that ran.
func TestMetricsEndToEnd(t *testing.T) {
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	ts := startServer(t, store.Options{}, Options{
		SlowOpThreshold: time.Nanosecond, // everything is "slow": exercises the log path
		Logf: func(format string, args ...any) {
			logMu.Lock()
			fmt.Fprintf(&logBuf, format+"\n", args...)
			logMu.Unlock()
		},
	})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const nOps = 200
	for i := uint64(0); i < nOps; i++ {
		if err := c.Put(context.Background(), i, i*7); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < nOps; i++ {
		if _, _, err := c.Get(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Scan(context.Background(), 0, ^uint64(0), 50); err != nil {
		t.Fatal(err)
	}

	// Scrape the registry and lint it like CI's metricscheck does.
	reg := ts.srv.Metrics()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.LintText(buf.Bytes())
	if err != nil {
		t.Fatalf("scrape does not lint: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"pmkv_server_requests_total",
		"pmkv_server_request_errors_total",
		"pmkv_server_request_stage_seconds",
		"pmkv_server_request_seconds",
		"pmkv_server_read_batch_requests",
		"pmkv_server_flush_bytes",
		"pmkv_server_connections_live",
		"pmkv_store_op_seconds",
		"pmkv_store_vlog_bytes",
		"pmkv_pmem_loads_total",
		"pmkv_pmem_used_bytes",
		"pmkv_pmem_retired_blocks_total",
		"pmkv_pmem_recycled_blocks_total",
	} {
		if !fams[want] {
			t.Errorf("family %s missing from scrape", want)
		}
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf(`pmkv_server_requests_total{op="Get"} %d`, nOps),
		fmt.Sprintf(`pmkv_server_requests_total{op="Put"} %d`, nOps),
		`pmkv_server_requests_total{op="Scan"} 1`,
		fmt.Sprintf(`pmkv_server_request_stage_seconds_count{op="Get",stage="execute"} %d`, nOps),
		fmt.Sprintf(`pmkv_server_request_stage_seconds_count{op="Get",stage="queue"} %d`, nOps),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The retired opcode 6 has no series under any name.
	for _, gone := range []string{`op="Op(6)"`, `op="Stats"`} {
		if strings.Contains(out, gone) {
			t.Errorf("scrape carries a %s series", gone)
		}
	}
	// Reads, writes and a scan have executed, each clocked (SlowOpThreshold
	// is set), so every class's whole-request histogram has counted them.
	for _, class := range []string{"read", "write", "scan"} {
		if got := sampleValue(t, out, `pmkv_server_request_seconds_count{class="`+class+`"}`); got == 0 {
			t.Errorf("class %s whole-request histogram counted nothing", class)
		}
	}
	// Store-level latencies sample 1-in-8 ops regardless of
	// SlowOpThreshold (which only forces full clocking server-side), so
	// bound the count from below rather than matching it exactly.
	if got := sampleValue(t, out, `pmkv_store_op_seconds_count{op="Get"}`); got < nOps/16 {
		t.Errorf("store Get histogram count = %v, want >= %d (1-in-8 sampled)", got, nOps/16)
	}

	// The flush stage records after the write syscall, concurrently with
	// this test's assertions; poll briefly instead of racing it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := ts.srv.met.flush[opSlot(1)].Snapshot() // Get's flush-wait hist
		if s.Count() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Error("flush-stage histogram never recorded")
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Slow-op log: threshold 1ns marks everything slow; the rate limiter
	// still guarantees at least the first line.
	if got := ts.srv.met.slowOps.Load(); got == 0 {
		t.Error("slow-op counter never incremented despite 1ns threshold")
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "slow op") {
		t.Errorf("slow-op log line missing from Logf output:\n%s", logged)
	}
}

// sampleValue finds the exposition line for series and parses its value.
func sampleValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("series %s: unparseable value %q", series, rest)
		}
		return v
	}
	t.Fatalf("series %s missing from scrape", series)
	return 0
}

// TestMetricsHandler serves a scrape over the HTTP handler and checks the
// content type and body shape.
func TestMetricsHandler(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	rec := httptest.NewRecorder()
	ts.srv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	if _, err := metrics.LintText(rec.Body.Bytes()); err != nil {
		t.Errorf("handler body does not lint: %v", err)
	}
}

// familySum adds up every series of one counter family in a scrape.
func familySum(exposition, family string) (sum float64) {
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, family+"{")
		if !ok {
			continue
		}
		var v float64
		fmt.Sscanf(rest[strings.LastIndexByte(rest, ' ')+1:], "%g", &v)
		sum += v
	}
	return sum
}

// TestStatsAgreeWithMetrics: Server.Stats is read off the metric families,
// not kept beside them, so after traffic over every opcode family — with a
// store error and a protocol error among it — each Stats counter equals
// its family in a scrape of the quiesced server.
func TestStatsAgreeWithMetrics(t *testing.T) {
	ts := startServer(t, store.Options{}, Options{})
	c, err := client.Dial(ts.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Put(context.Background(), 1, 10))
	_, _, err = c.Get(context.Background(), 1)
	must(err)
	_, err = c.Delete(context.Background(), 1)
	must(err)
	must(c.PutBatch(context.Background(), []client.KV{{Key: 2, Val: 20}, {Key: 3, Val: 30}}))
	_, err = c.Scan(context.Background(), 0, 10, 0)
	must(err)
	must(c.PutBytes(context.Background(), 100, []byte("v")))
	_, _, err = c.GetBytes(context.Background(), 100)
	must(err)
	_, err = c.ScanBytes(context.Background(), 100, 200, 0)
	must(err)
	must(c.PutKV(context.Background(), []byte("k1"), []byte("v1")))
	_, _, err = c.GetKV(context.Background(), []byte("k1"))
	must(err)
	_, err = c.ScanKV(context.Background(), []byte("k"), []byte("l"), 0)
	must(err)
	_, err = c.DeleteKV(context.Background(), []byte("k1"))
	must(err)
	must(c.CommitTxn(context.Background(), new(client.Txn).Put(4, 40).PutKV([]byte("k2"), []byte("v2"))))
	// A store error: a fixed-width key read as a varlen one.
	var remote *client.RemoteError
	if _, _, err := c.GetBytes(context.Background(), 2); !errors.As(err, &remote) {
		t.Fatalf("GetBytes of a fixed-width key: %v, want a RemoteError", err)
	}
	c.Close()

	// A protocol error on a second connection: a well-framed unknown opcode.
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write(rawFrame(append(binary.BigEndian.AppendUint64(nil, 9), 0xee))); err != nil {
		t.Fatal(err)
	}
	if _, end := readResponses(t, nc, 2); !errors.Is(end, io.EOF) {
		t.Fatalf("after a malformed frame the stream ended with %v, want EOF", end)
	}

	// Quiesce: the flush counters record after each Write returns.
	for deadline := time.Now().Add(5 * time.Second); ts.srv.Stats().ConnsLive != 0; {
		if time.Now().After(deadline) {
			t.Fatal("connections never closed")
		}
		time.Sleep(time.Millisecond)
	}
	st := ts.srv.Stats()
	var buf bytes.Buffer
	if err := ts.srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	decoded := familySum(out, "pmkv_server_requests_total") -
		sampleValue(t, out, `pmkv_server_requests_total{op="other"}`)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Ops", float64(st.Ops), familySum(out, "pmkv_server_requests_total")},
		{"Errors", float64(st.Errors), familySum(out, "pmkv_server_request_errors_total")},
		{"ReadBatches", float64(st.ReadBatches), sampleValue(t, out, "pmkv_server_read_batch_requests_count")},
		{"Flushes", float64(st.Flushes), sampleValue(t, out, "pmkv_server_flush_responses_count")},
		{"InlineOps", float64(st.InlineOps), decoded - sampleValue(t, out, "pmkv_server_shed_requests_total")},
	} {
		if c.got != c.want {
			t.Errorf("Stats.%s = %v, metrics say %v", c.name, c.got, c.want)
		}
	}
	// Fourteen requests and one undecodable frame; the GetV of a fixed key
	// and the frame are the errors.
	if st.Ops != 15 || st.Errors != 2 || st.InlineOps != 14 {
		t.Errorf("Ops %d Errors %d InlineOps %d, want 15 2 14", st.Ops, st.Errors, st.InlineOps)
	}
}
