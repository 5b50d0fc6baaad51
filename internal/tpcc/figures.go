package tpcc

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/pmem"
	"repro/store"
)

// Fig6 reproduces Figure 6: TPC-C throughput (Ktx/sec) for workload mixes
// W1–W4 across the single-threaded index set, with PM R/W latency 300ns.
// Every (kind, mix) run must pass CheckConsistency afterwards.
func Fig6(txPerMix int, warehouses int) *bench.Table {
	tbl := &bench.Table{
		Title: fmt.Sprintf("Figure 6: TPC-C throughput (Ktx/sec), %d tx/mix, %d warehouse(s), R/W latency 300ns",
			txPerMix, warehouses),
		Header: append([]string{"mix"}, kindNames()...),
		Notes:  "expected shape: FAST+FAIR wins every mix (insert + range-scan strength); WORT hurt by range scans as search share grows",
	}
	mem := pmem.Config{
		ReadLatency:  300 * time.Nanosecond,
		WriteLatency: 300 * time.Nanosecond,
	}
	for _, mix := range Mixes {
		row := []string{mix.Name}
		for _, k := range bench.AllSingleThreaded {
			b, err := NewBound(k, warehouses, mem)
			if err != nil {
				panic(err)
			}
			ktx := b.timed(mix, txPerMix, rand.New(rand.NewSource(77)), string(k))
			row = append(row, fmt.Sprintf("%.1f", ktx))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

func kindNames() []string {
	out := make([]string, len(bench.AllSingleThreaded))
	for i, k := range bench.AllSingleThreaded {
		out[i] = string(k)
	}
	return out
}

// FigTPCC measures transactional TPC-C throughput over the sharded store:
// each mix runs txPerMix transactions through the redo-log commit path and
// must pass CheckConsistency and Store.CheckInvariants afterwards. The
// "Kops/s" column is thousands of TPC-C transactions per second,
// tpmC-style.
func FigTPCC(txPerMix, warehouses int) *bench.Table {
	tbl := &bench.Table{
		Title: fmt.Sprintf("TPC-C transactional throughput over the store, %d tx/mix, %d warehouse(s)",
			txPerMix, warehouses),
		Header: []string{"mix", "Kops/s"},
		Notes: "each NewOrder/Payment/Delivery is one redo-log store transaction; " +
			"every mix run must pass the TPC-C consistency checks and the store's invariants",
	}
	for _, mix := range Mixes {
		tbl.Rows = append(tbl.Rows, []string{mix.Name, fmt.Sprintf("%.1f", storeMix(mix, txPerMix, warehouses))})
	}
	return tbl
}

// storeMix loads a fresh four-shard store, runs txPerMix transactions of
// mix and returns thousands of transactions per second. It panics if the
// mix breaks the TPC-C conditions (see timed) or the store's invariants.
func storeMix(mix Mix, txPerMix, warehouses int) float64 {
	st, err := store.Open(store.Options{Shards: 4, ShardSize: 64 << 20})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	b, err := NewOnSession(warehouses, ss)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(77))
	// Set-up, not throughput: a shard's first commit creates its redo log,
	// a TxnLogCap allocation on each of the four shards.
	if _, err := b.Run(mix, txPerMix/10, rng); err != nil {
		panic(fmt.Sprintf("tpcc %s warm-up: %v", mix.Name, err))
	}
	kops := b.timed(mix, txPerMix, rng, "tpcc")
	if err := st.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("tpcc %s: store invariants: %v", mix.Name, err))
	}
	return kops
}

// timed runs n transactions of mix, checks consistency outside the timed
// region and returns thousands of transactions per second. A failed
// transaction or a broken condition panics, naming the run by what.
func (b *Bench) timed(mix Mix, n int, rng *rand.Rand, what string) float64 {
	t0 := time.Now()
	n, err := b.Run(mix, n, rng)
	el := time.Since(t0)
	if err == nil {
		err = b.CheckConsistency()
	}
	if err != nil {
		panic(fmt.Sprintf("%s %s: %v", what, mix.Name, err))
	}
	return float64(n) / el.Seconds() / 1000
}
