package main

import (
	"fmt"
	mrand "math/rand"

	"repro/internal/pmem"
	"repro/store"
)

// The durability guard keeps the flush metrics honest: a change that lowers
// flush_lines_per_write by dropping a flush the protocol needs must fail
// here, not win there. It runs the workload's own generator, single
// session, on a one-shard store whose pool logs every store, flush and
// fence; then it materialises post-crash images at random points of that
// log under each crash mode and reopens them. Every operation acknowledged
// before the crash point must read back, the operation in flight must be
// wholly old or wholly new, and the invariants must hold.

const (
	guardUniverse = 256 // key indexes per keyspace, so the tape revisits keys
	guardOps      = 300 // mutating operations on the tape
	guardPoints   = 30  // crash points, each under every crash mode
)

type guardOp struct {
	logPos int // crash points at or past it include the operation's start
	o      op
}

func durabilityGuard(full *workload, seed uint64) error {
	wl := findWorkload(full.name, 1<<30) // the same mix over the smallest universe
	for i := range wl.ks {
		wl.ks[i].n = guardUniverse
	}
	opts := wl.storeOptions()
	opts.Latency = store.LatencyOptions{} // crash images do not depend on stalls
	opts.Shards = 1
	opts.Mem = pmem.Config{TrackCrashes: true}
	st, err := store.Open(opts)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := preload(wl, st); err != nil {
		return err
	}
	// Worker 0 alone drives the tape; worker 1's half of the universe keeps
	// its preloaded state and is checked like any other acknowledged write.
	w := newWorker(0, seed, wl)
	idle := newWorker(1, seed, wl)
	initial := cloneVersions(w.ver)
	x := newEmbedExec(wl, st)
	pool := st.Pool(0)
	pool.StartCrashLog()
	var tape []guardOp
	for len(tape) < guardOps {
		var o op
		wl.next(w, &o)
		if isWrite(o.kind) {
			tape = append(tape, guardOp{logPos: pool.Mark(int64(len(tape))), o: o})
		}
		x.do(w, &o, false)
		w.n++
	}
	x.close()
	if w.failed+w.mismatched != 0 {
		return fmt.Errorf("%d failures while recording the tape", w.failed+w.mismatched)
	}
	w.quiet, idle.quiet = true, true
	logLen := pool.LogLen()

	rng := mrand.New(mrand.NewSource(int64(seed)))
	for trial := 0; trial < guardPoints; trial++ {
		point := rng.Intn(logLen + 1)
		started := 0
		for started < len(tape) && tape[started].logPos <= point {
			started++
		}
		// The model at the crash: every started operation but the last is
		// acknowledged; the last may or may not have taken effect.
		w.ver = cloneVersions(initial)
		var inflight *op
		for i := 0; i < started; i++ {
			if i == started-1 {
				inflight = &tape[i].o
				break
			}
			applyToModel(w, &tape[i].o)
		}
		for _, mode := range []pmem.CrashMode{pmem.CrashNone, pmem.CrashAll, pmem.CrashRandom} {
			img := pool.CrashImage(point, mode, rng)
			if err := checkImage(wl, img, opts, w, idle, inflight); err != nil {
				return fmt.Errorf("crash point %d/%d mode %d: %w", point, logLen, mode, err)
			}
		}
	}
	return nil
}

func cloneVersions(ver [][]uint32) [][]uint32 {
	out := make([][]uint32, len(ver))
	for i := range ver {
		out[i] = append([]uint32(nil), ver[i]...)
	}
	return out
}

// applyToModel replays a recorded write into the version arrays.
func applyToModel(w *worker, o *op) {
	if o.kind == opCommit {
		for i, idx := range o.widx {
			w.ver[o.ks][idx/numWorkers] = o.wver[i]
		}
		return
	}
	w.ver[o.ks][o.idx/numWorkers] = o.ver
}

// checkImage reopens one crash image and reads every key back. The keys of
// the in-flight operation are read under the old model, and if that fails
// under the new one: all of them must agree on which.
func checkImage(wl *workload, img *pmem.Pool, opts store.Options, w, idle *worker, inflight *op) error {
	st, err := store.Reopen([]*pmem.Pool{img}, opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	if err := st.CheckInvariants(); err != nil {
		return err
	}
	readAll := func(who *worker) int64 {
		before := who.failed + who.mismatched
		readBack(wl, st, who)
		return who.failed + who.mismatched - before
	}
	if bad := readAll(idle); bad != 0 {
		return fmt.Errorf("%d untouched keys damaged", bad)
	}
	bad := readAll(w)
	if bad != 0 && inflight != nil {
		saved := cloneVersions(w.ver)
		applyToModel(w, inflight)
		bad = readAll(w)
		w.ver = saved
	}
	if bad != 0 {
		return fmt.Errorf("%d keys match neither the state before nor the state after the operation in flight", bad)
	}
	return nil
}
