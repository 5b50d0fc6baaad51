// Command benchfig regenerates the paper's figures as text tables.
//
// Usage:
//
//	benchfig [-n keys] [-threads 1,2,4,8] [-tx 2000] [-warehouses 1] <figure>...
//
// Figures: fig3 fig4 fig5a fig5b fig5c fig5d fig6 tpcc fig7a fig7b fig7c flushes all
//
// fig6 and tpcc run the same TPC-C transactions (internal/tpcc): fig6
// over per-table indexes of each kind, the paper's comparison, and tpcc
// over the sharded store, each NewOrder/Payment/Delivery one redo-log
// transaction. Both panic, exiting nonzero, if a run breaks the TPC-C
// consistency conditions.
//
// Default scales are reduced from the paper's 10M/50M keys so every figure
// regenerates in seconds to minutes; raise -n (and -tx) to approach
// paper-scale runs. Expected qualitative shapes are printed with each table.
// The figures are on-demand tools; what gates a change is benchmark/ (see
// BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/tpcc"
)

func main() {
	n := flag.Int("n", 200000, "keys per run (paper: 1M-50M)")
	threadsFlag := flag.String("threads", "1,2,4,8", "thread counts for fig7")
	tx := flag.Int("tx", 2000, "transactions per TPC-C mix")
	warehouses := flag.Int("warehouses", 1, "TPC-C warehouses")
	flag.Parse()

	var threads []int
	for _, s := range strings.Split(*threadsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad -threads value %q\n", s)
			os.Exit(2)
		}
		threads = append(threads, v)
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchfig [flags] fig3|fig4|fig5a|fig5b|fig5c|fig5d|fig6|tpcc|fig7a|fig7b|fig7c|flushes|all")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig6", "tpcc", "fig7a", "fig7b", "fig7c", "flushes"}
	}

	for _, fig := range args {
		var tbl *bench.Table
		switch fig {
		case "fig3":
			tbl = bench.Fig3(*n)
		case "fig4":
			tbl = bench.Fig4(*n)
		case "fig5a":
			tbl = bench.Fig5a(*n)
		case "fig5b":
			tbl = bench.Fig5b(*n)
		case "fig5c":
			tbl = bench.Fig5c(*n)
		case "fig5d":
			tbl = bench.Fig5d(*n)
		case "fig6":
			tbl = tpcc.Fig6(*tx, *warehouses)
		case "tpcc":
			tbl = tpcc.FigTPCC(*tx, *warehouses)
		case "fig7a":
			tbl = bench.Fig7("search", *n, threads)
		case "fig7b":
			tbl = bench.Fig7("insert", *n, threads)
		case "fig7c":
			tbl = bench.Fig7("mixed", *n, threads)
		case "flushes":
			tbl = bench.Flushes(*n)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", fig)
			os.Exit(2)
		}
		tbl.Fprint(os.Stdout)
	}
}
