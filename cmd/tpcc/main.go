// Command tpcc runs the transactional TPC-C smoke: it loads the given
// number of warehouses into a sharded store through one session, drives
// the selected workload mixes with every NewOrder, Payment and Delivery
// committed as one redo-log transaction, and then validates both the TPC-C
// consistency conditions (warehouse YTD vs district YTD vs history sum,
// district next_o_id vs the order table) and the store's own structural
// invariants. The transactions are internal/tpcc's, the same ones Figure 6
// (benchfig fig6) runs over per-table indexes.
//
// Usage:
//
//	tpcc [-warehouses 1] [-tx 2000] [-mix all|W1|W2|W3|W4] [-shards 4]
//
// Exit status is 0 only when every transaction commits and every check
// passes; any aborted-by-bug transaction or consistency violation exits 1.
// CI runs this as the tpcc smoke step.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/tpcc"
	"repro/store"
)

func main() {
	warehouses := flag.Int("warehouses", 1, "warehouses to load")
	tx := flag.Int("tx", 2000, "transactions per mix")
	mixName := flag.String("mix", "all", "mix to run: all, or one of W1..W4")
	shards := flag.Int("shards", 4, "store shards")
	flag.Parse()

	var mixes []tpcc.Mix
	for _, m := range tpcc.Mixes {
		if *mixName == "all" || m.Name == *mixName {
			mixes = append(mixes, m)
		}
	}
	if len(mixes) == 0 {
		fmt.Fprintf(os.Stderr, "tpcc: unknown mix %q\n", *mixName)
		os.Exit(2)
	}

	st, err := store.Open(store.Options{Shards: *shards, ShardSize: 64 << 20})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpcc: open: %v\n", err)
		os.Exit(1)
	}
	defer st.Close()
	ss := st.NewSession()
	defer ss.Close()
	b, err := tpcc.NewOnSession(*warehouses, ss)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tpcc: load: %v\n", err)
		os.Exit(1)
	}

	rng := rand.New(rand.NewSource(77))
	for _, mix := range mixes {
		t0 := time.Now()
		n, err := b.Run(mix, *tx, rng)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tpcc: %s aborted after %d transactions: %v\n", mix.Name, n, err)
			os.Exit(1)
		}
		el := time.Since(t0)
		fmt.Printf("%s: %d transactions in %v (%.1f Ktx/s)\n",
			mix.Name, n, el.Round(time.Millisecond), float64(n)/el.Seconds()/1000)
		if err := b.CheckConsistency(); err != nil {
			fmt.Fprintf(os.Stderr, "tpcc: consistency after %s: %v\n", mix.Name, err)
			os.Exit(1)
		}
	}
	if err := st.CheckInvariants(); err != nil {
		fmt.Fprintf(os.Stderr, "tpcc: store invariants: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("tpcc: all mixes committed, consistency and store invariants clean")
}
