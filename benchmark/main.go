// Command benchmark is the repository's one benchmark: seven seeded,
// closed-loop, time-bounded workloads against the public store, server and
// client APIs, each verified against a reference model, reporting seven
// end-to-end metrics or (with -trace 1) an 85-entry per-layer ledger measured
// from outside the layers. README.md explains the workloads and metrics;
// BENCHMARK.json at the repository root fixes their names.
//
//	benchmark -workload NAME|all [-seed 1] [-seconds 22] [-trace 0|1] [-json FILE]
//	benchmark -compare A.json B.json
//
// One workload runs in this process and prints its metrics, the last line of
// standard output being one JSON object. "all" re-executes the binary once
// per workload (a clean heap and a clean resident-set peak for each) and,
// with -trace 1, once more per workload for the per-layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated operations")
	seconds := flag.Float64("seconds", 22, "seconds measured per workload")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (traced round and layer replays) instead of the end-to-end ones")
	jsonOut := flag.String("json", "", "also write the results, with ranges and sample counts, to this file")
	outDir := flag.String("out", "benchmark/out", "directory for trace files")
	setupOnly := flag.Bool("setup-only", false, "internal: set the workload up once, print the seconds it took, exit")
	compare := flag.Bool("compare", false, "compare two -json files: benchmark -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var results []*result
	ok := true
	if *name == "all" {
		results, ok = runAll(*seed, *seconds, *trace, *outDir)
	} else {
		wl := findWorkload(*name, 1)
		if wl == nil {
			fatal(2, "unknown workload %q", *name)
		}
		if *setupOnly {
			_, dt, err := setUp(wl)
			if err != nil {
				fatal(1, "%s: set-up: %v", *name, err)
			}
			fmt.Println(dt)
			return
		}
		cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, setups: 5}
		if cfg.trace {
			cfg.setups = 1 // the traced run reports neither setup_s nor reopen_s
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(1, "%s: %v", *name, err)
		}
		specs := endToEnd
		if *trace == 1 {
			specs = perLayer
		}
		res.print(os.Stdout, specs)
		results, ok = []*result{res}, res.Correct
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(1, "%v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runAll runs every workload in a child process each, end-to-end first and
// then, when asked, traced. Children print their own tables; their results
// come back through -json files under outDir.
func runAll(seed uint64, seconds float64, trace int, outDir string) (results []*result, ok bool) {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	ok = true
	for _, wl := range workloads(1) {
		for t := 0; t <= trace; t++ {
			tmp := filepath.Join(outDir, fmt.Sprintf("result-%s-%d.json", wl.name, t))
			cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(t), "-out", outDir, "-json", tmp)
			var table strings.Builder
			cmd.Stdout, cmd.Stderr = &table, os.Stderr
			runErr := cmd.Run()
			// The child's last line is the driver's JSON object; the parent
			// prints the table without it.
			lines := strings.Split(strings.TrimRight(table.String(), "\n"), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			b, err := os.ReadFile(tmp)
			var rs []*result
			if err == nil {
				err = json.Unmarshal(b, &rs)
			}
			if err != nil || len(rs) != 1 {
				fatal(1, "%s: no result (%v, %v)", wl.name, runErr, err)
			}
			if t == 0 {
				results = append(results, rs[0])
			} else {
				// One entry per workload: fold the per-layer metrics in.
				last := results[len(results)-1]
				for name, m := range rs[0].Metrics {
					last.Metrics[name] = m
				}
				last.Correct = last.Correct && rs[0].Correct
			}
			ok = ok && runErr == nil && rs[0].Correct && rs[0].Failed == 0
		}
	}
	return results, ok
}
