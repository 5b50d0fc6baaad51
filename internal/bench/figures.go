package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/index"
	"repro/internal/core"
	"repro/internal/pmem"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Header)
	for _, r := range t.Rows {
		printRow(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Fig3 reproduces Figure 3: linear vs binary in-node search across node
// sizes, single-threaded FAST+FAIR at DRAM latency. Columns are µs/op.
func Fig3(n int) *Table {
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 3: linear vs binary search, %d keys (usec/op)", n),
		Header: []string{"node", "insert-linear", "insert-binary", "search-linear", "search-binary"},
		Notes:  "expected shape: insertion degrades with node size; binary search wins only at 4KB+ nodes (paper §5.2)",
	}
	keys := Keys(n, 1)
	probe := Keys(n, 2)
	for i := range probe {
		probe[i] = keys[i%len(keys)]
	}
	for _, ns := range []int{256, 512, 1024, 2048, 4096} {
		var ins, srch []string // linear, then binary
		for _, binary := range []bool{false, true} {
			p := pmem.New(pmem.Config{Size: poolFor(n)})
			th := p.NewThread()
			tr, err := core.New(p, th, core.Options{NodeSize: ns, BinarySearch: binary, InlineValues: true})
			if err != nil {
				panic(err)
			}
			el, err := Load(tr, th, keys)
			if err != nil {
				panic(err)
			}
			ins = append(ins, usPerOp(el, n))
			if el, err = SearchAll(tr, th, probe); err != nil {
				panic(err)
			}
			srch = append(srch, usPerOp(el, n))
		}
		tbl.Rows = append(tbl.Rows, append(append([]string{fmt.Sprintf("%dB", ns)}, ins...), srch...))
	}
	return tbl
}

// Fig4 reproduces Figure 4: range-query speedup over SkipList with varying
// selection ratio (read latency 300ns, 1KB nodes).
func Fig4(n int) *Table {
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 4: range query speedup vs SkipList, %d keys, read latency 300ns", n),
		Header: []string{"selection", "FAST+FAIR", "FP-tree", "wB+-tree", "WORT", "SkipList"},
		Notes:  "expected shape: FAST+FAIR largest speedup (paper: up to ~20x), FP-tree and wB+-tree close behind, WORT poor",
	}
	ratios := []float64{0.001, 0.005, 0.01, 0.03, 0.05}
	kinds := AllSingleThreaded
	keys := Keys(n, 3)
	sorted := append([]uint64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	times := map[index.Kind][]time.Duration{}
	for _, k := range kinds {
		ix, th, err := index.New(k,
			pmem.Config{Size: poolFor(n), ReadLatency: 300 * time.Nanosecond},
			index.Options{NodeSize: 1024, InlineValues: true})
		if err != nil {
			panic(err)
		}
		if _, err := Load(ix, th, keys); err != nil {
			panic(err)
		}
		for _, ratio := range ratios {
			count := int(float64(n) * ratio)
			if count < 1 {
				count = 1
			}
			const queries = 10
			t0 := time.Now()
			for q := 0; q < queries; q++ {
				start := (q * 7919) % (n - count - 1)
				lo, hi := sorted[start], sorted[start+count]
				got := 0
				ix.Scan(th, lo, hi, func(uint64, uint64) bool {
					got++
					return true
				})
				if got < count/2 {
					panic(fmt.Sprintf("%s scan returned %d of %d", k, got, count))
				}
			}
			times[k] = append(times[k], time.Since(t0))
		}
	}
	for ri, ratio := range ratios {
		row := []string{fmt.Sprintf("%.1f%%", ratio*100)}
		base := times[index.SkipList][ri]
		for _, k := range kinds {
			row = append(row, fmt.Sprintf("%.2fx", float64(base)/float64(times[k][ri])))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// fig5Kinds is the Figure 5 series: F, L, P, W, O, S.
var fig5Kinds = []index.Kind{index.FastFair, index.FastFairLogging, index.FPTree, index.WBTree, index.WORT, index.SkipList}

// fig5Lats is the latency axis of Figures 5(a)-(c).
var fig5Lats = []time.Duration{0, 120 * time.Nanosecond, 300 * time.Nanosecond, 600 * time.Nanosecond, 900 * time.Nanosecond}

// Fig5a reproduces Figure 5(a): single-threaded insertion time broken into
// clflush / search / node-update, sweeping symmetric PM latency.
func Fig5a(n int) *Table {
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 5(a): insert time breakdown (usec/op), %d keys", n),
		Header: []string{"latency", "index", "total", "clflush", "search", "update"},
		Notes:  "expected shape: F/P/O comparable and ahead of W and S; clflush share grows with latency; L trails F by ~7-18%",
	}
	keys := Keys(n, 4)
	for _, lat := range fig5Lats {
		for _, k := range fig5Kinds {
			ix, th, err := index.New(k,
				pmem.Config{Size: poolFor(n), ReadLatency: lat, WriteLatency: lat},
				index.Options{InlineValues: true})
			if err != nil {
				panic(err)
			}
			th.Stats = pmem.Stats{}
			th.TimePhases()
			el, err := Load(ix, th, keys)
			if err != nil {
				panic(err)
			}
			th.EndPhase()
			st := th.Stats
			tbl.Rows = append(tbl.Rows, []string{
				lat.String(), string(k), usPerOp(el, n),
				usPerOp(st.PhaseTime[pmem.PhaseFlush], n),
				usPerOp(st.PhaseTime[pmem.PhaseSearch], n),
				usPerOp(st.PhaseTime[pmem.PhaseUpdate], n),
			})
		}
	}
	return tbl
}

// Fig5b reproduces Figure 5(b): search time under increasing PM read
// latency.
func Fig5b(n int) *Table {
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 5(b): search time vs read latency (usec/op), %d keys", n),
		Header: append([]string{"read-latency"}, kindNames(AllSingleThreaded)...),
		Notes:  "expected shape: FP-tree edges ahead at >=600ns (volatile inner nodes); WORT and SkipList degrade fastest (pointer chasing)",
	}
	sweep(tbl, fig5Lats, AllSingleThreaded, Keys(n, 5), true, func(lat time.Duration) pmem.Config {
		return pmem.Config{Size: poolFor(n), ReadLatency: lat}
	}, nil)
	return tbl
}

// Fig5c reproduces Figure 5(c): insertion time under increasing PM write
// latency on a TSO machine.
func Fig5c(n int) *Table {
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 5(c): insert time vs write latency, TSO (usec/op), %d keys", n),
		Header: append([]string{"write-latency"}, kindNames(fig5Kinds)...),
		Notes:  "expected shape: WORT overtakes everything as flush count dominates; FAST+FAIR beats L, P, W, S throughout",
	}
	sweep(tbl, fig5Lats, fig5Kinds, Keys(n, 6), false, func(lat time.Duration) pmem.Config {
		return pmem.Config{Size: poolFor(n), WriteLatency: lat}
	}, nil)
	return tbl
}

// Fig5d reproduces Figure 5(d): insertion under increasing write latency on
// a non-TSO machine (store fences cost BarrierLatency; wB+-tree and FP-tree
// limited to 256B nodes as on the paper's 4-byte-word ARM testbed).
func Fig5d(n int) *Table {
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 5(d): insert time vs write latency, non-TSO (usec/op), %d keys", n),
		Header: append([]string{"write-latency"}, kindNames(AllSingleThreaded)...),
		Notes:  "expected shape: FAST+FAIR loses at DRAM speed (it fences every store) but wins as write latency grows",
	}
	lats := []time.Duration{0, 700 * time.Nanosecond, 1000 * time.Nanosecond, 1300 * time.Nanosecond, 1600 * time.Nanosecond}
	sweep(tbl, lats, AllSingleThreaded, Keys(n, 7), false, func(lat time.Duration) pmem.Config {
		return pmem.Config{Size: poolFor(n), WriteLatency: lat, Model: pmem.NonTSO,
			BarrierLatency: 30 * time.Nanosecond}
	}, func(k index.Kind) int {
		if k == index.WBTree || k == index.FPTree {
			return 256
		}
		return 0
	})
	return tbl
}

// sweep adds one row per latency to tbl, led by the latency, with one
// usec/op cell per kind: the time to load keys into a fresh index on
// mem(lat), or with search set the time to then look every key up. A nil
// nodeSize leaves every kind at its default node size.
func sweep(tbl *Table, lats []time.Duration, kinds []index.Kind, keys []uint64, search bool,
	mem func(lat time.Duration) pmem.Config, nodeSize func(index.Kind) int) {
	for _, lat := range lats {
		row := []string{lat.String()}
		for _, k := range kinds {
			opts := index.Options{InlineValues: true}
			if nodeSize != nil {
				opts.NodeSize = nodeSize(k)
			}
			ix, th, err := index.New(k, mem(lat), opts)
			if err != nil {
				panic(err)
			}
			el, err := Load(ix, th, keys)
			if err == nil && search {
				el, err = SearchAll(ix, th, keys)
			}
			if err != nil {
				panic(err)
			}
			row = append(row, usPerOp(el, len(keys)))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
}

// fig7Trials is the number of trials a Figure 7 cell is the median of.
const fig7Trials = 9

// Fig7 reproduces Figure 7: throughput with varying thread counts for the
// three workloads (search / insert / mixed). workload is "search", "insert",
// or "mixed". Each cell is the median of fig7Trials trials of n/fig7Trials
// operations on one preloaded index per kind. The kinds take turns trial by
// trial, so a stretch of host noise lands on every kind's trials alike
// instead of on one kind's only run.
func Fig7(workload string, n int, threads []int) *Table {
	kinds := AllConcurrent
	if workload == "insert" {
		kinds = []index.Kind{index.FastFair, index.FPTree, index.BLink, index.SkipList} // as in Fig 7(b)
	}
	tbl := &Table{
		Title:  fmt.Sprintf("Figure 7 (%s): throughput Kops/sec, %d preloaded keys, write latency 300ns", workload, n),
		Header: append([]string{"threads"}, kindNames(kinds)...),
		Notes: fmt.Sprintf("each cell is the median of %d trials of n/%d ops, kinds interleaved. "+
			"expected shape: lock-free FAST+FAIR (and +LeafLock) scale furthest; B-link saturates first. "+
			"NOTE: flat scaling on a single-core host.", fig7Trials, fig7Trials),
	}
	preload := Keys(n, 8)
	for _, nt := range threads {
		ixs := make([]index.Index, len(kinds))
		for i, k := range kinds {
			ix, th, err := index.New(k,
				pmem.Config{Size: 2 * poolFor(n), WriteLatency: 300 * time.Nanosecond},
				index.Options{InlineValues: true})
			if err != nil {
				panic(err)
			}
			if _, err := Load(ix, th, preload); err != nil {
				panic(err)
			}
			ixs[i] = ix
		}
		perT := n / fig7Trials / nt // ops per thread per trial
		kops := make([][]float64, len(kinds))
		for trial := range fig7Trials {
			for i, ix := range ixs {
				var wg sync.WaitGroup
				t0 := time.Now()
				for g := 0; g < nt; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						wth := ix.Pool().NewThread()
						runWorkload(ix, wth, workload, preload, g, trial*perT, perT)
					}(g)
				}
				wg.Wait()
				kops[i] = append(kops[i], float64(perT*nt)/time.Since(t0).Seconds()/1000)
			}
		}
		row := []string{fmt.Sprintf("%d", nt)}
		for _, ks := range kops {
			sort.Float64s(ks)
			row = append(row, fmt.Sprintf("%.0f", ks[len(ks)/2]))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

// runWorkload runs operations from..from+ops-1 of one thread's workload
// stream. Operation i's key depends on i alone, so successive trials that
// continue one stream insert keys no earlier trial inserted.
func runWorkload(ix index.Index, th *pmem.Thread, workload string, preload []uint64, g, from, ops int) {
	n := len(preload)
	end := from + ops
	switch workload {
	case "search":
		for i := from; i < end; i++ {
			k := preload[(i*2654435761+g*97)%n]
			if _, ok := ix.Get(th, k); !ok {
				panic("preloaded key missing")
			}
		}
	case "insert":
		for i := from; i < end; i++ {
			k := uint64(g)<<48 | uint64(i) | 1<<63 // disjoint from preload w.h.p.
			if err := ix.Insert(th, k, k); err != nil {
				panic(err)
			}
		}
	case "mixed":
		// The paper's per-thread loop: 4 inserts, 16 searches, 1 delete.
		i := from
		for i < end {
			for j := 0; j < 4 && i < end; j++ {
				k := uint64(g)<<48 | uint64(i) | 1<<63
				if err := ix.Insert(th, k, k); err != nil {
					panic(err)
				}
				i++
			}
			for j := 0; j < 16 && i < end; j++ {
				k := preload[(i*2654435761+g*97)%n]
				ix.Get(th, k)
				i++
			}
			if i < end {
				k := uint64(g)<<48 | uint64(i/2) | 1<<63
				ix.Delete(th, k)
				i++
			}
		}
	}
}

// Flushes reports the in-text §5.4 counters: average flushed lines and
// fences per insert, and charged serial reads per search (the emulator's
// stand-in for effective LLC misses).
func Flushes(n int) *Table {
	tbl := &Table{
		Title:  fmt.Sprintf("§5.4 in-text counters, %d keys", n),
		Header: []string{"index", "flush-lines/insert", "fences/insert", "charged-reads/search"},
		Notes:  "paper: FAST+FAIR 4.2 vs FP-tree 4.8 flushes/insert; wB+-tree 1.7x FAST+FAIR; B+-trees absorb reads via locality",
	}
	keys := Keys(n, 9)
	for _, k := range fig5Kinds {
		ix, th, err := index.New(k,
			pmem.Config{Size: poolFor(n), ReadLatency: 300 * time.Nanosecond},
			index.Options{InlineValues: true})
		if err != nil {
			panic(err)
		}
		th.Stats = pmem.Stats{}
		if _, err := Load(ix, th, keys); err != nil {
			panic(err)
		}
		ins := th.Stats
		th.Stats = pmem.Stats{}
		if _, err := SearchAll(ix, th, keys); err != nil {
			panic(err)
		}
		srch := th.Stats
		tbl.Rows = append(tbl.Rows, []string{
			string(k),
			fmt.Sprintf("%.2f", float64(ins.FlushedLines)/float64(n)),
			fmt.Sprintf("%.2f", float64(ins.Fences)/float64(n)),
			fmt.Sprintf("%.2f", float64(srch.ChargedReads)/float64(n)),
		})
	}
	return tbl
}

func kindNames(ks []index.Kind) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = string(k)
	}
	return out
}

// poolFor sizes an arena generously for n keys across any index layout
// (WORT and SkipList are the hungriest).
func poolFor(n int) int64 {
	sz := int64(n) * 512
	if sz < 64<<20 {
		sz = 64 << 20
	}
	return sz
}
