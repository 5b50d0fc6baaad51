package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/pmem"
	"repro/server"
	"repro/store"
)

const (
	rounds     = 40 // measured rounds; see pick for how a metric's value is chosen among them
	warmupFrac = 16 // the warm-up round lasts seconds/warmupFrac
)

// config is one invocation: a workload, a seed, how long to measure.
type config struct {
	wl      *workload
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	setups  int // set-ups timed; setup_s is their favourable decile
}

func (wl *workload) storeOptions() store.Options {
	o := store.Options{ShardSize: wl.shardSize} // otherwise the defaults: 4 FAST+FAIR shards
	if wl.pm {
		o.Latency = store.LatencyOptions{Read: pmLatency, Write: pmLatency}
	}
	return o
}

// stack is the system under test, set up and preloaded: a store, for the
// net_* workloads a server in front of it with one connection per worker,
// and one executor per worker on the stack's top layer.
type stack struct {
	st     *store.Store
	srv    *server.Server
	served chan error
	execs  [numWorkers]executor
}

// preloadStride scatters the preload order (a prime, so multiplying by it is
// a bijection modulo any smaller universe): ascending inserts would build
// the trees by appends alone and leave every node half full.
const preloadStride = 2654435761

// preload writes the initial state, each worker's keys from a goroutine of
// its own.
func preload(wl *workload, st *store.Store) error {
	var wg sync.WaitGroup
	var errs [numWorkers]error
	for id := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = preloadShare(wl, st, id)
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// preloadShare writes worker id's share of the initial state: every key
// live0 selects, at version 1.
func preloadShare(wl *workload, st *store.Store, id int) error {
	ss := st.NewSession()
	defer ss.Close()
	var kb [kvKeyLen]byte
	var val []byte
	passes := 1
	if wl.churned {
		passes = 2
	}
	for i := range wl.ks {
		k := &wl.ks[i]
		m := uint64(k.n / numWorkers)
		for pass := 0; pass < passes; pass++ {
			for j := uint64(0); j < m; j++ {
				idx := uint32(j*preloadStride%m)*numWorkers + uint32(id)
				if !k.live0(idx) {
					continue
				}
				key := k.key(idx)
				var err error
				switch k.fam {
				case famU64:
					err = ss.Put(key, u64val(key, 1))
				case famBytes:
					val = fillValue(val, key, 1, k.valLen(idx))
					err = ss.PutBytes(key, val)
				case famKV:
					val = fillValue(val, key, 1, k.valLen(idx))
					err = ss.PutKV(k.kvKey(&kb, idx), val)
				}
				if err != nil {
					return fmt.Errorf("preload idx %d: %w", idx, err)
				}
			}
		}
	}
	return nil
}

// setUp builds one stack and reports how long that took: Open, preload and,
// on the net_* workloads, serve and dial. The preload runs in process before
// the server starts, so its memory traffic is folded into the pools'
// counters before the measured traffic begins.
func setUp(wl *workload) (*stack, float64, error) {
	t0 := time.Now()
	st, err := store.Open(wl.storeOptions())
	if err != nil {
		return nil, 0, err
	}
	if err := preload(wl, st); err != nil {
		return nil, 0, err
	}
	s := &stack{st: st}
	if !wl.net {
		for id := range s.execs {
			s.execs[id] = newEmbedExec(wl, st)
		}
		return s, time.Since(t0).Seconds(), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s.srv = server.New(st, server.Options{})
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	for id := range s.execs {
		c, err := client.Dial(ln.Addr().String(), client.Options{})
		if err != nil {
			return nil, 0, err
		}
		s.execs[id] = newNetExec(wl, c)
	}
	return s, time.Since(t0).Seconds(), nil
}

// quiesce closes the load side — sessions, connections, the server — so
// every thread's counters are folded into the pools. The store stays open.
func (s *stack) quiesce() error {
	for _, x := range s.execs {
		x.close()
	}
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	<-s.served
	s.srv = nil
	return nil
}

// usedBytes is the arena space the store holds, over all pools.
func usedBytes(st *store.Store) (used int64) {
	for _, p := range st.Pools() {
		used += p.Size() - p.FreeBytes()
	}
	return used
}

// roundStats is what one round measured.
type roundStats struct {
	opsPerS          float64
	p50, p99         [2]float64 // ns, by class
	samples          [2]int64
	maxWrite         float64 // ns
	issueP50, window float64 // net_*
	spaceAmp         float64
}

// totals accumulates counts over every round since set-up, warm-up
// included: the pools' counters cannot be read per round (they fold when a
// session closes), so count metrics divide by these.
type totals struct {
	ops, writes, userBytes int64
	seconds                float64 // worker-seconds
}

// runner drives a stack with the workload's workers.
type runner struct {
	cfg     config
	s       *stack
	workers [numWorkers]*worker
	tot     totals
	merged  [2][]int32 // round's scratch: both workers' latency samples, by class
	issued  []int32    // round's scratch: both workers' issue samples
}

// round runs every worker for d and merges what they clocked. With trace
// set every call is clocked and recorded as a span.
func (r *runner) round(d time.Duration, trace bool) roundStats {
	wl := r.cfg.wl
	deadline := now() + int64(d)
	var wg sync.WaitGroup
	for id, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := r.s.execs[id]
			w.beginRound()
			w.last = 0
			if trace {
				w.spans = make([]span, 0, maxSpans)
			}
			start := now()
			var o op
			for w.last < deadline {
				wl.next(w, &o)
				x.do(w, &o, trace || w.n&wl.clockMask == 0)
				w.n++
			}
			x.drain(w)
			w.elapsed = now() - start
		}()
	}
	wg.Wait()

	var rs roundStats
	lat := &r.merged
	for c := range lat {
		lat[c] = lat[c][:0]
	}
	issue := r.issued[:0]
	var windowSum, ops int64
	for _, w := range r.workers {
		rs.opsPerS += float64(w.ops) / (float64(w.elapsed) / 1e9)
		for c := range lat {
			lat[c] = append(lat[c], w.lat[c]...)
		}
		issue = append(issue, w.issue...)
		windowSum += w.windowSum
		ops += w.ops
		r.tot.ops += w.ops
		r.tot.writes += w.writes
		r.tot.userBytes += w.userBytes
		r.tot.seconds += float64(w.elapsed) / 1e9
	}
	for c := range lat {
		slices.Sort(lat[c])
		rs.p50[c], rs.p99[c] = quantile(lat[c], 0.50), quantile(lat[c], 0.99)
		rs.samples[c] = int64(len(lat[c]))
	}
	if n := len(lat[classWrite]); n > 0 {
		rs.maxWrite = float64(lat[classWrite][n-1])
	}
	slices.Sort(issue)
	rs.issueP50 = quantile(issue, 0.5)
	r.issued = issue
	rs.window = float64(windowSum) / float64(ops)
	var live int64
	for _, w := range r.workers {
		live += w.liveBytes(wl.ks)
	}
	rs.spaceAmp = float64(usedBytes(r.s.st)) / float64(live)
	return rs
}

// procCounters samples what the proc.* metrics are deltas of.
type procCounters struct {
	cpu                      float64 // user+system seconds
	mallocs, bytes, gcPauses uint64
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procCounters{tv(ru.Utime) + tv(ru.Stime), ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// setUpInChild re-executes this binary to set the workload up once in a
// fresh process and report the seconds it took.
func setUpInChild(wl *workload) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-workload", wl.name, "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// verified is the state after the load: the store closed, reopened from its
// pools and checked.
type verified struct {
	st       *store.Store
	reopenS  []float64
	checkS   float64
	readback int64
}

// verify closes the store, reopens it from its pools (several times when the
// reopen is being timed), checks the invariants and reads every owned key
// back against the model.
func (r *runner) verify(reopens int) (*verified, error) {
	wl := r.cfg.wl
	pools := r.s.st.Pools()
	if err := r.s.st.Close(); err != nil {
		return nil, err
	}
	v := &verified{}
	for i := 0; i < reopens; i++ {
		if v.st != nil {
			if err := v.st.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		st, err := store.Reopen(pools, wl.storeOptions())
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		v.reopenS = append(v.reopenS, time.Since(t0).Seconds())
		v.st = st
	}
	t0 := time.Now()
	if err := v.st.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("invariants after reopen: %w", err)
	}
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readBack(wl, v.st, w)
		}()
	}
	wg.Wait()
	v.checkS = time.Since(t0).Seconds()
	for i := range wl.ks {
		v.readback += int64(wl.ks[i].n)
	}
	return v, nil
}

func (r *runner) failures() (failed, mismatched int64) {
	for _, w := range r.workers {
		failed += w.failed
		mismatched += w.mismatched
	}
	return failed, mismatched
}

// runWorkload is one whole invocation: set up, warm up, measure, verify.
// Without trace it returns the end-to-end metrics, with trace the per-layer
// ones.
func runWorkload(cfg config) (*result, error) {
	wl := cfg.wl
	res := &result{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Metrics: map[string]measurement{}}

	// Set up first, while the heap is still pristine: a pool that lands on
	// memory the process has used before is zeroed page by page, which reads
	// as a slower set-up and a 256 MiB higher resident-set peak. For the same
	// reason the other set-ups timed for setup_s run in child processes of
	// their own, one at a time, spread over the measured rounds below.
	s, dt, err := setUp(wl)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := []float64{dt}
	r := &runner{cfg: cfg, s: s}
	for id := range r.workers {
		r.workers[id] = newWorker(id, cfg.seed, wl)
	}
	base := r.s.st.Stats()
	baseV := r.s.st.ValueStats()

	measured := time.Duration(cfg.seconds * float64(time.Second))
	r.round(measured/warmupFrac, false)
	warmOps := r.tot.ops
	roundLen := measured / rounds
	if cfg.trace {
		// Half the time goes to untraced rounds (the reference the traced
		// round's overhead is measured against), the rest to the traced
		// round and the replays.
		roundLen /= 2
	}
	p0 := readProc()
	rs := make([]roundStats, rounds)
	for i := range rs {
		// A set-up in a child between two rounds, at even distances: what
		// slows this machine lasts seconds, and set-ups made one after the
		// other would all meet it or all miss it.
		if len(setupS) < cfg.setups && i == len(setupS)*rounds/cfg.setups {
			dt, err := setUpInChild(wl)
			if err != nil {
				return nil, fmt.Errorf("set-up in child: %w", err)
			}
			setupS = append(setupS, dt)
		}
		// The pools are Go heap, so the collector's goal sits a gigabyte
		// away and on its own it would not run once in a short run: the
		// resident-set peak would then be the garbage of the whole run and
		// grow with its length. Collecting between rounds bounds it by one
		// round's garbage.
		runtime.GC()
		rs[i] = r.round(roundLen, false)
	}
	p1 := readProc()
	measuredOps := r.tot.ops - warmOps
	col := func(f func(roundStats) float64) []float64 { return column(rs, f) }

	var tr *traced
	if cfg.trace {
		tr = &traced{untracedOpsPerS: pickHigh.of(col(func(s roundStats) float64 { return s.opsPerS }))}
		tr.round = r.round(roundLen, true)
		for _, w := range r.workers {
			tr.spans = append(tr.spans, w.spans)
			w.spans = nil
		}
		tr.captureServer(r.s.srv)
	}
	if err := r.s.quiesce(); err != nil {
		return nil, err
	}
	// The resident-set peak is read here, before the verification and the
	// durability guard, whose memory is the benchmark's and not the system's.
	peakRSS := peakRSSMB()
	delta := statsDelta(r.s.st.Stats(), base)
	vs := r.s.st.ValueStats()

	reopens := 1
	if cfg.trace {
		reopens = 5 // store.reopen_s is the favourable decile of five
	}
	v, err := r.verify(reopens)
	if err != nil {
		return nil, err
	}
	// finish tallies what was attempted and what failed, once nothing more
	// will run against the store.
	res.Correct = true
	finish := func(specs []metricSpec) (*result, error) {
		failed, mismatched := r.failures()
		res.Attempted, res.Failed = r.tot.ops+v.readback, failed+mismatched
		res.Correct = res.Correct && mismatched == 0
		return res, res.finish(specs)
	}

	if !cfg.trace {
		us := func(ns float64) float64 { return ns / 1e3 }
		res.setRange("ops_per_s", col(func(s roundStats) float64 { return s.opsPerS }), pickHigh, measuredOps)
		res.setRange("read_p50_us", col(func(s roundStats) float64 { return us(s.p50[classRead]) }), pickLow, sumSamples(rs, classRead))
		res.setRange("write_p50_us", col(func(s roundStats) float64 { return us(s.p50[classWrite]) }), pickLow, sumSamples(rs, classWrite))
		res.set("flush_lines_per_write", float64(delta.FlushedLines)/float64(r.tot.writes))
		res.setRange("space_amp", col(func(s roundStats) float64 { return s.spaceAmp }), pickMedian, 0)
		res.setRange("setup_s", setupS, pickLow, 0)
		if !wl.net {
			if err := durabilityGuard(wl, cfg.seed); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: durability guard:", err)
				res.Correct = false
			}
		}
		res.set("peak_rss_mb", peakRSS)
		return finish(endToEnd)
	}

	tr.rounds, tr.proc0, tr.proc1, tr.measuredOps = rs, p0, p1, measuredOps
	tr.delta, tr.vlogBase, tr.vlogEnd = delta, baseV, vs
	if err := tr.perLayer(r, v, res); err != nil {
		return nil, err
	}
	return finish(perLayer)
}

// column extracts one measurement from every round.
func column(rs []roundStats, f func(roundStats) float64) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = f(rs[i])
	}
	return out
}

func sumSamples(rs []roundStats, class int) (n int64) {
	for _, s := range rs {
		n += s.samples[class]
	}
	return n
}

func statsDelta(a, b pmem.Stats) pmem.Stats {
	return pmem.Stats{
		Loads:        a.Loads - b.Loads,
		Stores:       a.Stores - b.Stores,
		ChargedReads: a.ChargedReads - b.ChargedReads,
		FlushedLines: a.FlushedLines - b.FlushedLines,
		FlushCalls:   a.FlushCalls - b.FlushCalls,
		Fences:       a.Fences - b.Fences,
	}
}
