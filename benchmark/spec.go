package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// The metric names are fixed here and in BENCHMARK.json (the self-test holds
// the two equal): every later performance or simplicity change is judged
// with them.

type metricSpec struct {
	name, unit string
	// lowerBetter and bound apply to end-to-end metrics only: bound is the
	// share of the baseline median by which the metric may worsen.
	lowerBetter bool
	bound       float64
}

var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", false, 0.25},
	{"read_p50_us", "us", true, 0.25},
	{"write_p50_us", "us", true, 0.25},
	{"flush_lines_per_write", "lines", true, 0.08},
	{"space_amp", "ratio", true, 0.05},
	{"setup_s", "s", true, 0.25},
	{"peak_rss_mb", "MB", true, 0.25},
}

// perLayer lists the per-layer metrics, layer by layer. A workload that
// bypasses a layer reports 0 for that layer's metrics.
var perLayer = func() []metricSpec {
	layers := []struct {
		layer string
		names string // "name:unit" pairs
	}{
		{"pmem", "flushed_lines_per_op:lines flush_calls_per_op:count fences_per_op:count charged_reads_per_op:lines loads_per_op:count stores_per_op:count stall_frac:ratio used_mb:MB"},
		{"core", "get_ns:ns insert_ns:ns delete_ns:ns scan_ns_per_pair:ns loads_per_get:count charged_reads_per_get:lines flushed_lines_per_insert:lines fences_per_insert:count flushed_lines_per_delete:lines"},
		{"vlog", "append_ns:ns read_ns:ns flushed_lines_per_append:lines fences_per_append:count arena_bytes_per_user_byte:ratio garbage_ratio_end:ratio gc_extents:count gc_relocated_per_kwrite:count gc_pass_ms:ms reclaimed_mb:MB"},
		{"txnlog", "append_ns:ns truncate_ns:ns flushed_lines_per_append:lines fences_per_append:count"},
		{"store", "get_ns:ns put_ns:ns delete_ns:ns getbytes_ns:ns putbytes_ns:ns getkv_ns:ns putkv_ns:ns deletekv_ns:ns scan_us:us scanbytes_us:us scankv_us:us commit_us:us fences_per_commit:count flushed_lines_per_commit:lines self_frac_read:ratio self_frac_write:ratio read_p99_us:us write_p99_us:us write_max_us:us transient_read_misses:count reopen_s:s check_s:s"},
		{"wire", "encode_req_ns:ns decode_req_ns:ns encode_resp_ns:ns decode_resp_ns:ns req_bytes_per_op:bytes resp_bytes_per_op:bytes allocs_per_roundtrip:count"},
		{"server", "ops_per_read_batch:count ops_per_flush:count inline_frac:ratio bytes_in_per_op:bytes bytes_out_per_op:bytes queue_p50_us:us queue_p99_us:us execute_p50_us:us execute_p99_us:us flushwait_p50_us:us flushwait_p99_us:us request_p50_us:us request_p99_us:us errors:count shed:count"},
		{"client", "issue_ns:ns rtt_minus_server_p50_us:us window_mean:count read_p99_us:us write_p99_us:us"},
		{"proc", "cpu_s_per_mop:s alloc_bytes_per_op:bytes allocs_per_op:count gc_pause_ms:ms trace_overhead_frac:ratio"},
	}
	var out []metricSpec
	for _, l := range layers {
		for _, nu := range strings.Fields(l.names) {
			name, unit, _ := strings.Cut(nu, ":")
			out = append(out, metricSpec{name: l.layer + "." + name, unit: unit})
		}
	}
	return out
}()

// measurement is one metric's value with what stands beside it: the
// quartiles over the rounds (or repeats) it was picked from, and how many
// samples the rounds clocked.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int64   `json:"samples,omitempty"`
}

// pick says which point of a metric's repeated measurements is its value, as
// the share of the sorted measurements below it. This sandbox shares its
// cores' caches and memory with its host's other tenants, who slow whatever
// touches memory to between half and four fifths of its speed for seconds,
// sometimes minutes, at a time (README.md, "Which round is the value"): a
// disturbed round can only read slower, never faster, and a median over the
// rounds moved by 10 to 30 % between runs of the same code. So a wall-clock
// metric takes the decile on its favourable side (nine tenths of the rounds
// may be disturbed before it moves) and everything that is not a time takes
// the median.
type pick float64

const (
	pickLow    pick = 0.1 // times and latencies: the lower decile
	pickMedian pick = 0.5 // counts, ratios, sizes
	pickHigh   pick = 0.9 // rates: the upper decile
)

func (p pick) of(vs []float64) float64 { return quantileOf(vs, float64(p)) }

// result is one workload's outcome.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// set records a single-valued metric.
func (r *result) set(name string, v float64) { r.setRange(name, []float64{v}, pickMedian, 0) }

// setRange records a metric measured repeatedly.
func (r *result) setRange(name string, vs []float64, p pick, samples int64) {
	r.Metrics[name] = measurement{Value: p.of(vs), Q1: quantileOf(vs, 0.25), Q3: quantileOf(vs, 0.75), Samples: samples}
}

// finish stamps the units, and fails loudly when the metrics are not
// exactly the named set: a name missing here would silently vanish from
// every later comparison.
func (r *result) finish(specs []metricSpec) error {
	if len(r.Metrics) != len(specs) {
		return fmt.Errorf("benchmark: %s produced %d metrics, want %d", r.Workload, len(r.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := r.Metrics[s.name]
		if !ok {
			return fmt.Errorf("benchmark: %s produced no %s", r.Workload, s.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("benchmark: %s: %s is %v", r.Workload, s.name, m.Value)
		}
		m.Unit = s.unit
		r.Metrics[s.name] = m
	}
	return nil
}

// print writes the human-readable table, then the one-line JSON object the
// driver reads from the last line of standard output.
func (r *result) print(w io.Writer, specs []metricSpec) {
	fmt.Fprintf(w, "%s  seed=%d  seconds=%g  correct=%v  attempted=%d  failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed)
	for _, s := range specs {
		m := r.Metrics[s.name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", s.name, m.Value, m.Unit)
		if m.Q1 != m.Q3 {
			fmt.Fprintf(w, "  quartiles [%.6g .. %.6g]", m.Q1, m.Q3)
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, "  n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wireMetric{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = wireMetric{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers, strings and bools cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}

// quantileOf returns the point of vs with the share p of the measurements
// below it, interpolating between neighbours.
func quantileOf(vs []float64, p float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := float64(len(s)-1) * p
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
