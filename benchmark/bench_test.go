package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/store"
)

// testDiv shrinks the universes so a whole workload sets up in milliseconds.
const testDiv = 256

// TestNamesMatchBenchmarkJSON holds the metric names, units, directions and
// bounds in spec.go equal to BENCHMARK.json, which is what the driver reads,
// and BENCHMARK.json's workloads among the benchmark's.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	// The driver gates on a subset of the workloads (README.md says which and
	// why); each must be one of the benchmark's, in the benchmark's order.
	wls := workloads(1)
	next := 0
	for _, dw := range doc.Workloads {
		for next < len(wls) && wls[next].name != dw.Name {
			next++
		}
		if next == len(wls) {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks or lists earlier", dw.Name)
		}
		next++
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s], the benchmark %s [%s]", kind, i, g.Name, g.Unit, w.name, w.unit)
			}
			if bounded {
				better := map[bool]string{true: "lower", false: "higher"}[w.lowerBetter]
				if g.Better != better || g.Bound != w.bound {
					t.Errorf("%s: BENCHMARK.json says %s within %g, the benchmark %s within %g", g.Name, g.Better, g.Bound, better, w.bound)
				}
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced and
// traced. result.finish already fails a run whose metrics are not exactly
// the named set; here every run must also be correct with nothing failed,
// and its printed last line must carry the same names with units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads(testDiv) {
		for _, trace := range []bool{false, true} {
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			res, err := runWorkload(config{wl: &wl, seed: 1, seconds: 0.2, trace: trace, outDir: t.TempDir(), setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			var out strings.Builder
			res.print(&out, specs)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", wl.name, err)
			}
			if len(last.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: last line has %d metrics, want %d", wl.name, trace, len(last.Metrics), len(specs))
			}
			for _, s := range specs {
				if m, ok := last.Metrics[s.name]; !ok || m.Value == nil || m.Unit != s.unit {
					t.Errorf("%s trace=%v: last line lacks %s [%s]", wl.name, trace, s.name, s.unit)
				}
			}
		}
	}
}

// oneWorker drives n operations of worker 0 alone into a fresh store and
// returns the pools' counters and the worker.
func oneWorker(t *testing.T, wl *workload, seed uint64, n int) (pmem.Stats, *worker, *store.Store) {
	t.Helper()
	st, err := store.Open(wl.storeOptions())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < numWorkers; id++ { // one share after the other: no interleaving
		if err := preloadShare(wl, st, id); err != nil {
			t.Fatal(err)
		}
	}
	w := newWorker(0, seed, wl)
	x := newEmbedExec(wl, st)
	for i := 0; i < n; i++ {
		var o op
		wl.next(w, &o)
		x.do(w, &o, false)
		w.n++
	}
	x.close()
	if w.failed+w.mismatched != 0 {
		t.Fatalf("%s: %d failed, %d mismatched", wl.name, w.failed, w.mismatched)
	}
	return st.Stats(), w, st
}

// counters strips a Stats of its wall-clock part.
func counters(s pmem.Stats) [7]uint64 {
	return [7]uint64{s.Loads, s.Stores, s.ChargedReads, s.FlushedLines, s.FlushCalls, s.Fences, s.StoreFences}
}

// TestSameSeedSameCounts: with one worker there is no interleaving left, so
// two runs of one seed must produce the very same pmem counts — the
// property that lets a later change claim a count.
func TestSameSeedSameCounts(t *testing.T) {
	for _, wl := range workloads(testDiv) {
		if wl.net {
			continue
		}
		wl.pm = false // the counts do not depend on the stalls
		a, _, _ := oneWorker(t, &wl, 7, 8000)
		b, _, _ := oneWorker(t, &wl, 7, 8000)
		if counters(a) != counters(b) {
			t.Errorf("%s: same seed, different counts:\n%+v\n%+v", wl.name, a, b)
		}
		c, _, _ := oneWorker(t, &wl, 8, 8000)
		if c.Stores == a.Stores && c.Loads == a.Loads {
			t.Errorf("%s: another seed gave the same counts; the seed does not reach the operations", wl.name)
		}
	}
}

// TestModelCatchesCorruption: a value the model did not write and a key the
// model holds live but the store lost must each be one mismatch in the
// read-back.
func TestModelCatchesCorruption(t *testing.T) {
	for _, name := range []string{"embed_u64_read", "embed_kv_churn", "net_bytes_sync"} {
		wl := findWorkload(name, testDiv)
		_, w, st := oneWorker(t, wl, 3, 2000)
		w.quiet = true
		readBack(wl, st, w)
		if w.mismatched != 0 {
			t.Fatalf("%s: clean read-back found %d mismatches", name, w.mismatched)
		}
		k := &wl.ks[0]
		idx := w.ownWhere(0, k, true)
		ss := st.NewSession()
		var kb [kvKeyLen]byte
		wrong := fillValue(nil, k.key(idx), w.ver[0][idx/numWorkers]+2, max(k.valLen(idx), 8))
		var err error
		switch k.fam {
		case famU64:
			err = ss.Put(k.key(idx), u64val(k.key(idx), 1)^1)
		case famBytes:
			err = ss.PutBytes(k.key(idx), wrong)
		case famKV:
			err = ss.PutKV(k.kvKey(&kb, idx), wrong)
		}
		ss.Close()
		if err != nil {
			t.Fatal(err)
		}
		readBack(wl, st, w)
		if w.mismatched != 1 {
			t.Errorf("%s: a corrupted value at idx %d gave %d mismatches, want 1", name, idx, w.mismatched)
		}
		ss = st.NewSession()
		if k.fam == famKV {
			_, err = ss.DeleteKV(k.kvKey(&kb, idx))
		} else {
			_, err = ss.Delete(k.key(idx))
		}
		ss.Close()
		if err != nil {
			t.Fatal(err)
		}
		readBack(wl, st, w)
		if w.mismatched != 2 {
			t.Errorf("%s: a lost key at idx %d left %d mismatches, want 2", name, idx, w.mismatched)
		}
	}
}

// TestCompareVerdicts feeds -compare two result sets whose only difference
// is known.
func TestCompareVerdicts(t *testing.T) {
	mk := func(ops, q1, q3 float64) string {
		var rs []*result
		for _, wl := range workloads(1) {
			r := &result{Workload: wl.name, Correct: true, Attempted: 1, Metrics: map[string]measurement{}}
			for _, s := range endToEnd {
				r.Metrics[s.name] = measurement{Value: 100, Unit: s.unit, Q1: 99, Q3: 101}
			}
			if wl.id == wlTxn {
				r.Metrics["ops_per_s"] = measurement{Value: ops, Unit: "1/s", Q1: q1, Q3: q3}
			}
			rs = append(rs, r)
		}
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		f := t.TempDir() + "/r.json"
		if err := os.WriteFile(f, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return f
	}
	base := mk(100, 99, 101)
	for _, c := range []struct {
		name      string
		file      string
		wantWorse bool
		wantWord  string
	}{
		{"within the bound", mk(95, 94, 96), false, " ok"},
		{"slower, ranges apart", mk(50, 49, 51), true, "worse"},
		{"slower, ranges overlap", mk(50, 40, 100), false, "unresolved"},
		{"faster", mk(200, 190, 210), false, " ok"},
	} {
		var out strings.Builder
		worse, err := compareFiles(&out, base, c.file)
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "embed_txn") && strings.Contains(l, "ops_per_s") {
				line = l
			}
		}
		if worse != c.wantWorse || !strings.HasSuffix(line, c.wantWord) {
			t.Errorf("%s: worse=%v, line %q; want worse=%v ending in %q", c.name, worse, line, c.wantWorse, c.wantWord)
		}
	}
}
