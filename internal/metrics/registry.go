package metrics

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Registry holds named metric families and renders them. Registration
// happens at subsystem construction (server.New, store.Open); rendering
// happens on scrape. Families group series that share a name and type but
// differ in labels — the per-opcode layout.
//
// Counters and gauges are read-function-backed, so existing atomic counters
// register without changing how they are written. Histograms register the
// live *Histogram; the registry snapshots it per scrape.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help, typ string
	series          []series
}

type series struct {
	labels  string // rendered label pairs without braces, e.g. `op="Get"`
	counter func() uint64
	gauge   func() float64
	hist    *Histogram
	scale   float64 // exported value = recorded value * scale (1e-9: ns→s)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) add(name, labels, help, typ string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
	}
	s.labels = labels
	f.series = append(f.series, s)
}

// Counter registers a counter series read from fn. labels is the rendered
// label list without braces ("" for none), e.g. `op="Get"`.
func (r *Registry) Counter(name, labels, help string, fn func() uint64) {
	r.add(name, labels, help, "counter", series{counter: fn})
}

// Gauge registers a gauge series read from fn.
func (r *Registry) Gauge(name, labels, help string, fn func() float64) {
	r.add(name, labels, help, "gauge", series{gauge: fn})
}

// Histogram registers a histogram series. scale converts recorded values to
// the exported unit (1e-9 for nanosecond recordings exported as seconds,
// 1 for counts and sizes).
func (r *Registry) Histogram(name, labels, help string, scale float64, h *Histogram) {
	if scale == 0 {
		scale = 1
	}
	r.add(name, labels, help, "histogram", series{hist: h, scale: scale})
}

// fmtFloat renders a sample value the way Prometheus text format expects.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w io.Writer, name, labels string, v float64) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, fmtFloat(v))
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, fmtFloat(v))
	return err
}

// joinLabels appends extra to base with the "," separator, tolerating either
// being empty.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	if extra == "" {
		return base
	}
	return base + "," + extra
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE header per family, then every series.
// Histograms export cumulative buckets on the power-of-two grid — each `le`
// bound is 2^k in the exported unit's recorded scale — spanning the
// nonempty range, plus the mandatory +Inf bucket, _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			switch {
			case s.counter != nil:
				err = writeSample(w, f.name, s.labels, float64(s.counter()))
			case s.gauge != nil:
				err = writeSample(w, f.name, s.labels, s.gauge())
			case s.hist != nil:
				err = writeHist(w, f.name, s.labels, s.hist.Snapshot(), s.scale)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHist renders one histogram series: cumulative buckets at the
// power-of-two boundaries covering the recorded range (the fine sub-bucket
// resolution stays internal; the exported grid is stable across scrapes
// because its bounds come from a fixed geometric ladder, not the data).
func writeHist(w io.Writer, name, labels string, s *Snapshot, scale float64) error {
	// Find the first and last nonempty bucket to bound the ladder: the
	// boundary for k covers recorded values < 2^k (cumulative through
	// fine-bucket index (k-subBits+1)*subCount - 1).
	first, last := -1, -1
	for i, c := range s.Counts {
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	var cum uint64
	if first >= 0 {
		kFirst := first/subCount + subBits // smallest k with 2^k > bucket lo
		kLast := last/subCount + subBits + 1
		idx := 0
		for k := kFirst; k <= kLast && k <= 63; k++ {
			// cumulative count of values < 2^k = buckets [0, k*subCount-subCount*subBits+...):
			// bucket index of value 2^k - 1 is (k-subBits)*subCount + subCount - 1
			end := (k-subBits)*subCount + subCount // exclusive
			if end > len(s.Counts) {
				end = len(s.Counts)
			}
			for ; idx < end; idx++ {
				cum += s.Counts[idx]
			}
			le := float64(int64(1)<<k) * scale
			if err := writeSample(w, name+"_bucket", joinLabels(labels, `le="`+fmtFloat(le)+`"`), float64(cum)); err != nil {
				return err
			}
		}
	}
	if err := writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), float64(s.Total)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", labels, float64(s.Sum)*scale); err != nil {
		return err
	}
	return writeSample(w, name+"_count", labels, float64(s.Total))
}

// Handler returns an http.Handler serving the registry as Prometheus text
// format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// ExpvarFunc returns a function rendering the registry as a JSON-shaped map:
// counters and gauges by "name{labels}" key, histograms as
// {count, sum, p50, p99, max} objects. It is an in-process view only
// (benchmark/'s trace reads its server's stage latencies through it); no
// server publishes it — a running server is read on /metrics.
func (r *Registry) ExpvarFunc() func() any {
	return func() any {
		out := make(map[string]any)
		r.mu.Lock()
		fams := make([]*family, len(r.families))
		copy(fams, r.families)
		r.mu.Unlock()
		for _, f := range fams {
			for _, s := range f.series {
				key := f.name
				if s.labels != "" {
					key += "{" + s.labels + "}"
				}
				switch {
				case s.counter != nil:
					out[key] = s.counter()
				case s.gauge != nil:
					out[key] = s.gauge()
				case s.hist != nil:
					snap := s.hist.Snapshot()
					out[key] = map[string]any{
						"count": snap.Count(),
						"sum":   float64(snap.Sum) * s.scale,
						"p50":   float64(snap.Quantile(0.50)) * s.scale,
						"p99":   float64(snap.Quantile(0.99)) * s.scale,
						"max":   float64(snap.Max()) * s.scale,
					}
				}
			}
		}
		return out
	}
}
