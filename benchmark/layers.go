package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/index"
	"repro/internal/pmem"
	"repro/internal/txnlog"
	"repro/internal/vlog"
	"repro/server"
	"repro/store"
	"repro/wire"
)

// The per-layer ledger. Every layer is measured from outside: by timing
// calls into its public functions and reading its public counters. The
// store's own numbers come from the traced round (or, behind the network,
// from a replay into a store.Session); the layers below it are reached by
// replaying a tape of the workload's operations, single-threaded, straight
// into index, vlog, txnlog and wire with the same keys, sizes and device.

const (
	mib = 1 << 20
	// tapeOps caps the replay tape; the tape also ends after a tenth of the
	// measured seconds, because one ScanKV costs a thousand Gets.
	tapeOps = 200_000
	// vlogReadSet is how many records, at most, the vlog replay appends up
	// front for the tape's reads to resolve.
	vlogReadSet = 4096
)

// traced carries what the traced run gathered before the layer replays.
type traced struct {
	untracedOpsPerS float64
	rounds          []roundStats
	round           roundStats // the traced round
	spans           [][]span   // the traced round's spans, per worker
	proc0, proc1    procCounters
	measuredOps     int64
	delta           pmem.Stats
	vlogBase        store.ValueLogStats
	vlogEnd         store.ValueLogStats
	srv             server.Stats
	stage           map[string][2]float64 // server histogram -> p50, p99 in us
}

// captureServer reads the server's counters and latency histograms, through
// Server.Stats and Server.Metrics, just before it shuts down. They cover
// everything since the server started: warm-up, measured and traced rounds.
func (t *traced) captureServer(srv *server.Server) {
	if srv == nil {
		return
	}
	t.srv = srv.Stats()
	t.stage = map[string][2]float64{}
	vars, _ := srv.Metrics().ExpvarFunc()().(map[string]any)
	for name, v := range vars {
		if h, ok := v.(map[string]any); ok {
			p50, _ := h["p50"].(float64)
			p99, _ := h["p99"].(float64)
			t.stage[name] = [2]float64{p50 * 1e6, p99 * 1e6}
		}
	}
}

// recorder collects the spans of the replays and, per class of the store
// call that causes them (a transaction's reads are reads), the time spent
// below the store.
type recorder struct {
	spans   []span
	childNs [2]float64
}

func (rc *recorder) rec(layer, op uint8, class int, id int, t0, t1 int64) {
	rc.childNs[class] += float64(t1 - t0)
	if len(rc.spans) < cap(rc.spans) {
		rc.spans = append(rc.spans, span{layer: layer, kind: op, id: uint32(id), start: t0, dur: int32(t1 - t0)})
	}
}

// counts accumulates pmem counter deltas around replayed calls.
type counts struct {
	n                                      int64
	loads, charged, flushed, fences, pairs uint64
}

func (c *counts) add(before, after *pmem.Stats) {
	c.n++
	c.loads += after.Loads - before.Loads
	c.charged += after.ChargedReads - before.ChargedReads
	c.flushed += after.FlushedLines - before.FlushedLines
	c.fences += after.Fences - before.Fences
}

func (c *counts) per(v uint64) float64 {
	if c.n == 0 {
		return 0
	}
	return float64(v) / float64(c.n)
}

func (wl *workload) deviceConfig() pmem.Config {
	cfg := pmem.Config{Size: 256 * mib}
	if wl.shardSize != 0 {
		cfg.Size = wl.shardSize
	}
	if wl.pm {
		cfg.ReadLatency, cfg.WriteLatency = pmLatency, pmLatency
	}
	return cfg
}

// recordTape continues worker 0's stream, single-threaded, into a session on
// the reopened store, recording the operations and a store span for each.
func recordTape(r *runner, st *store.Store) (tape []op, spans []span) {
	wl, w := r.cfg.wl, r.workers[0]
	x := newEmbedExec(wl, st)
	defer x.close()
	w.beginRound()
	w.spans = make([]span, 0, maxSpans)
	w.n = 0 // span ids index the tape
	deadline := now() + int64(r.cfg.seconds*1e9/10)
	for len(tape) < tapeOps && now() < deadline {
		var o op
		wl.next(w, &o)
		x.do(w, &o, true)
		w.n++
		tape = append(tape, o)
	}
	r.tot.ops += w.ops
	spans, w.spans = w.spans, nil
	return tape, spans
}

// treeKey is the key the store's tree holds for (keyspace, index) and the
// shard it lives on.
func treeKey(st *store.Store, k *keyspace, idx uint32) (key uint64, shard int) {
	if k.fam == famKV {
		var kb [kvKeyLen]byte
		return k.base + uint64(k.prefixIdx(idx)), st.ShardForKey(k.kvKey(&kb, idx))
	}
	return k.key(idx), st.ShardFor(k.key(idx))
}

// replayCore drives the tape's tree operations into FAST+FAIR handles opened
// through package index, one per shard, routed like the store routes them
// and preloaded with the keys live when the tape began.
func replayCore(wl *workload, st *store.Store, tape []op, ver0 [numWorkers][][]uint32, rc *recorder) (c [4]counts, err error) {
	n := st.NumShards()
	ixs := make([]index.Index, n)
	ths := make([]*pmem.Thread, n)
	for s := range ixs {
		p := pmem.New(wl.deviceConfig())
		ths[s] = p.NewThread()
		if ixs[s], err = index.Open(index.FastFair, p, ths[s], index.Options{}); err != nil {
			return c, err
		}
	}
	var wg sync.WaitGroup
	var errs [numWorkers]error
	for id := 0; id < numWorkers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			my := make([]*pmem.Thread, n)
			for s := range my {
				my[s] = ixs[s].Pool().NewThread()
			}
			for i := range wl.ks {
				k := &wl.ks[i]
				m := uint64(k.n / numWorkers)
				for j := uint64(0); j < m; j++ {
					slot := uint32(j * preloadStride % m)
					if !isLive(ver0[id][i][slot]) {
						continue
					}
					tk, s := treeKey(st, k, slot*numWorkers+uint32(id))
					if err := ixs[s].Insert(my[s], tk, tk|1); err != nil {
						errs[id] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return c, fmt.Errorf("core replay preload: %w", err)
		}
	}

	timed := func(id int, cop uint8, s int, call func(th *pmem.Thread)) {
		th := ths[s]
		before := th.Stats
		t0 := now()
		call(th)
		t1 := now()
		c[cop].add(&before, &th.Stats)
		class := classWrite
		if cop == coreGet || cop == coreScan {
			class = classRead
		}
		rc.rec(layerCore, cop, class, id, t0, t1)
	}
	point := func(id int, cop uint8, k *keyspace, idx uint32, word uint64) {
		tk, s := treeKey(st, k, idx)
		timed(id, cop, s, func(th *pmem.Thread) {
			switch cop {
			case coreGet:
				ixs[s].Get(th, tk)
			case coreInsert:
				_, _, err = index.Exchange(ixs[s], th, tk, word)
			case coreDelete:
				index.Remove(ixs[s], th, tk)
			}
		})
	}
	for id := range tape {
		o := &tape[id]
		k := &wl.ks[o.ks]
		switch o.kind {
		case opGet, opGetBytes, opGetKV:
			point(id, coreGet, k, o.idx, 0)
		case opPut, opPutBytes, opPutKV:
			point(id, coreInsert, k, o.idx, uint64(o.ver)<<8|1)
		case opDelete:
			point(id, coreDelete, k, o.idx, 0)
		case opDeleteKV:
			// Removing one key of a shared bucket rewrites the bucket.
			if k.inSharedBucket(o.idx) {
				point(id, coreInsert, k, o.idx, uint64(o.ver)<<8|1)
			} else {
				point(id, coreDelete, k, o.idx, 0)
			}
		case opScan, opScanBytes, opScanKV:
			// What the scan needs from the trees: the next 16 pairs of
			// every shard. Whatever more the store reads is its own time.
			lo, hi := k.base+uint64(k.prefixIdx(o.idx)), k.base+uint64(k.n-1)
			for s := range ixs {
				timed(id, coreScan, s, func(th *pmem.Thread) {
					left := scanPairs
					ixs[s].Scan(th, lo, hi, func(_, _ uint64) bool {
						c[coreScan].pairs++
						left--
						return left > 0
					})
				})
			}
		case opCommit:
			for _, idx := range o.ridx {
				point(id, coreGet, k, idx, 0)
			}
			for i, idx := range o.widx {
				point(id, coreInsert, k, idx, u64val(k.key(idx), o.wver[i]))
			}
		}
		if err != nil {
			return c, fmt.Errorf("core replay: %w", err)
		}
	}
	return c, nil
}

// recordLen is the payload one operation moves through the value log: the
// value, or for byte keys the bucket holding it (two entries on average in
// a shared bucket, half of whose four keys are live).
func recordLen(k *keyspace, idx uint32) int {
	n := k.valLen(idx)
	if k.fam == famKV {
		n += 6 + kvKeyLen
		if k.inSharedBucket(idx) {
			n *= 2
		}
	}
	return n
}

// replayVlog drives the tape's value-log traffic into a log made with
// vlog.Create: an Append per value or bucket written, a Read per value or
// bucket resolved. It reports nothing for a tape without varlen operations.
func replayVlog(wl *workload, tape []op, rc *recorder) (c [2]counts, err error) {
	var k *keyspace // the keyspace whose sizes the read set takes
	for i := range wl.ks {
		if wl.ks[i].fam != famU64 {
			k = &wl.ks[i]
		}
	}
	if k == nil {
		return c, nil
	}
	p := pmem.New(wl.deviceConfig())
	th := p.NewThread()
	vl, err := vlog.Create(p, th, 5, vlog.DefaultExtent)
	if err != nil {
		return c, err
	}
	var val, dst []byte
	// The records the tape's reads resolve, in at most a quarter of the pool.
	var refs []vlog.Ref
	for used := 0; len(refs) < vlogReadSet && int64(used) < p.Size()/4; {
		j := uint64(len(refs))
		n := recordLen(k, uint32(mix(j)%uint64(k.n)))
		val = fillValue(val, j, 1, n)
		ref, err := vl.Append(th, j, val)
		if err != nil {
			return c, err
		}
		refs, used = append(refs, ref), used+n
	}
	appendRec := func(o *op, id int, k *keyspace) {
		if err != nil {
			return
		}
		val = fillValue(val, uint64(o.idx), o.ver, recordLen(k, o.idx))
		before := th.Stats
		t0 := now()
		_, err = vl.Append(th, uint64(o.idx), val)
		t1 := now()
		c[vlogAppend].add(&before, &th.Stats)
		rc.rec(layerVlog, vlogAppend, classOf(o.kind), id, t0, t1)
	}
	read := func(o *op, id int, idx uint32) {
		if err != nil {
			return
		}
		before := th.Stats
		t0 := now()
		dst, err = vl.Read(th, refs[int(idx)%len(refs)], dst[:0])
		t1 := now()
		c[vlogRead].add(&before, &th.Stats)
		rc.rec(layerVlog, vlogRead, classOf(o.kind), id, t0, t1)
	}
	for id := range tape {
		o := &tape[id]
		k := &wl.ks[o.ks]
		switch o.kind {
		case opGetBytes, opGetKV:
			read(o, id, o.idx)
		case opPutBytes:
			appendRec(o, id, k)
		case opPutKV:
			read(o, id, o.idx) // the bucket being rewritten
			appendRec(o, id, k)
		case opDeleteKV:
			read(o, id, o.idx)
			if k.inSharedBucket(o.idx) {
				appendRec(o, id, k)
			}
		case opScanBytes, opScanKV:
			for j := uint32(0); j < scanPairs; j++ {
				read(o, id, o.idx+j)
			}
		}
		if errors.Is(err, vlog.ErrFull) {
			break // no GC runs here: the replay ends when its pool is full
		}
		if err != nil {
			return c, fmt.Errorf("vlog replay: %w", err)
		}
	}
	return c, nil
}

// txnPutLen is the encoded size of one fixed-width put in a transaction's
// intent record: kind byte, key, value.
const txnPutLen = 1 + 8 + 8

// replayTxnlog drives each commit's redo-log traffic into logs made with
// txnlog.Create, one per shard: an intent record per participating shard
// sized like the workload's, a commit mark per shard, a truncation per shard.
func replayTxnlog(wl *workload, st *store.Store, tape []op, rc *recorder) (c [2]counts, err error) {
	if wl.id != wlTxn {
		return c, nil
	}
	p := pmem.New(wl.deviceConfig())
	th := p.NewThread()
	logs := make([]*txnlog.Log, st.NumShards())
	for s := range logs {
		if logs[s], err = txnlog.Create(p, th, s, min(4*mib, p.Size()/16)); err != nil {
			return c, err
		}
	}
	payload := make([]byte, txnWrites*txnPutLen)
	perShard := make([]int, len(logs))
	timed := func(id int, top uint8, call func()) {
		before := th.Stats
		t0 := now()
		call()
		t1 := now()
		c[top].add(&before, &th.Stats)
		rc.rec(layerTxnlog, top, classWrite, id, t0, t1)
	}
	for id := range tape {
		o := &tape[id]
		clear(perShard)
		for _, idx := range o.widx {
			perShard[st.ShardFor(wl.ks[0].key(idx))]++
		}
		for s, n := range perShard {
			if n > 0 {
				timed(id, txnAppend, func() {
					err = logs[s].Append(th, uint64(id+1), txnlog.KindIntent, payload[:n*txnPutLen])
				})
			}
		}
		for s, n := range perShard {
			if n > 0 && err == nil {
				timed(id, txnAppend, func() { err = logs[s].Append(th, uint64(id+1), txnlog.KindCommit, nil) })
			}
		}
		for s, n := range perShard {
			if n > 0 {
				timed(id, txnTruncate, func() { logs[s].Truncate(th) })
			}
		}
		if err != nil {
			return c, fmt.Errorf("txnlog replay: %w", err)
		}
	}
	return c, nil
}

// wireTotals is what the wire replay measured besides its spans.
type wireTotals struct {
	reqBytes, respBytes, mallocs, trips int64
}

// replayWire pushes each operation's frames through the codecs the way a
// request travels: AppendRequest, DecodeRequest, AppendResponse,
// DecodeResponse, with the payload sizes of the workload.
func replayWire(wl *workload, tape []op, rc *recorder) (wt wireTotals, err error) {
	if !wl.net {
		return wt, nil
	}
	var reqBuf, respBuf, val []byte
	pairs := make([]wire.VKV, scanPairs)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for id := range tape {
		o := &tape[id]
		k := &wl.ks[o.ks]
		key := k.key(o.idx)
		req := wire.Request{ID: uint64(id + 1), Key: key}
		resp := wire.Response{ID: req.ID, Status: wire.StatusOK}
		switch o.kind {
		case opGet:
			req.Op, resp.Val = wire.OpGet, u64val(key, o.ver)
		case opPut:
			req.Op, req.Val = wire.OpPut, u64val(key, o.ver)
		case opGetBytes:
			val = fillValue(val, key, o.ver|1, k.valLen(o.idx))
			req.Op, resp.VVal = wire.OpGetV, val
		case opPutBytes:
			val = fillValue(val, key, o.ver, k.valLen(o.idx))
			req.Op, req.VVal = wire.OpPutV, val
		case opScanBytes:
			val = fillValue(val, key, 1, k.valLen(o.idx))
			for j := range pairs {
				pairs[j] = wire.VKV{Key: key + uint64(j), Val: val}
			}
			req = wire.Request{ID: req.ID, Op: wire.OpScanV, Lo: key, Hi: k.key(uint32(k.n - 1)), Max: scanPairs}
			resp.VPairs = pairs
		}
		resp.Op = req.Op
		t0 := now()
		reqBuf, err = wire.AppendRequest(reqBuf[:0], &req)
		t1 := now()
		if err == nil {
			_, err = wire.DecodeRequest(reqBuf[wire.FrameHdrSize:])
		}
		t2 := now()
		if err == nil {
			respBuf, err = wire.AppendResponse(respBuf[:0], &resp)
		}
		t3 := now()
		if err == nil {
			_, err = wire.DecodeResponse(respBuf[wire.FrameHdrSize:])
		}
		t4 := now()
		if err != nil {
			return wt, fmt.Errorf("wire replay: %w", err)
		}
		rc.rec(layerWire, wireEncodeReq, classOf(o.kind), id, t0, t1)
		rc.rec(layerWire, wireDecodeReq, classOf(o.kind), id, t1, t2)
		rc.rec(layerWire, wireEncodeResp, classOf(o.kind), id, t2, t3)
		rc.rec(layerWire, wireDecodeResp, classOf(o.kind), id, t3, t4)
		wt.reqBytes += int64(len(reqBuf))
		wt.respBytes += int64(len(respBuf))
		wt.trips++
	}
	runtime.ReadMemStats(&ms1)
	wt.mallocs = int64(ms1.Mallocs - ms0.Mallocs)
	return wt, nil
}

// perLayer runs the replays on the verified store and fills res with every
// per-layer metric.
func (t *traced) perLayer(r *runner, v *verified, res *result) error {
	wl := r.cfg.wl
	ops := float64(r.tot.ops)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	all := append(append([]roundStats{}, t.rounds...), t.round)
	col := func(f func(roundStats) float64) []float64 { return column(t.rounds, f) }

	d := t.delta
	res.set("pmem.flushed_lines_per_op", float64(d.FlushedLines)/ops)
	res.set("pmem.flush_calls_per_op", float64(d.FlushCalls)/ops)
	res.set("pmem.fences_per_op", float64(d.Fences)/ops)
	res.set("pmem.charged_reads_per_op", float64(d.ChargedReads)/ops)
	res.set("pmem.loads_per_op", float64(d.Loads)/ops)
	res.set("pmem.stores_per_op", float64(d.Stores)/ops)
	stall := 0.0
	if wl.pm {
		stall = float64(d.ChargedReads+d.FlushedLines) * pmLatency.Seconds()
	}
	res.set("pmem.stall_frac", stall/r.tot.seconds)
	res.set("pmem.used_mb", float64(usedBytes(v.st))/mib)
	res.set("store.fences_per_commit", 0)
	res.set("store.flushed_lines_per_commit", 0)
	if wl.id == wlTxn {
		res.set("store.fences_per_commit", float64(d.Fences)/ops)
		res.set("store.flushed_lines_per_commit", float64(d.FlushedLines)/ops)
	}

	dv := func(f func(store.ValueLogStats) int64) float64 { return float64(f(t.vlogEnd) - f(t.vlogBase)) }
	gross := dv(func(s store.ValueLogStats) int64 { return s.Cap }) + dv(func(s store.ValueLogStats) int64 { return s.Reclaimed })
	res.set("vlog.arena_bytes_per_user_byte", gross/float64(r.tot.userBytes))
	res.set("vlog.garbage_ratio_end", t.vlogEnd.GarbageRatio())
	res.set("vlog.gc_extents", dv(func(s store.ValueLogStats) int64 { return s.GCPasses }))
	res.set("vlog.gc_relocated_per_kwrite", dv(func(s store.ValueLogStats) int64 { return s.Relocated })/(float64(r.tot.writes)/1e3))
	res.set("vlog.reclaimed_mb", dv(func(s store.ValueLogStats) int64 { return s.Reclaimed })/mib)
	ss := v.st.NewSession()
	t0 := time.Now()
	_, err := ss.CompactValues()
	res.set("vlog.gc_pass_ms", time.Since(t0).Seconds()*1e3)
	ss.Close()
	if err != nil {
		return fmt.Errorf("CompactValues: %w", err)
	}

	var ver0 [numWorkers][][]uint32
	for id, w := range r.workers {
		ver0[id] = cloneVersions(w.ver)
	}
	tape, storeSpans := recordTape(r, v.st)
	rc := &recorder{spans: make([]span, 0, maxSpans)}
	coreC, err := replayCore(wl, v.st, tape, ver0, rc)
	if err != nil {
		return err
	}
	vlogC, err := replayVlog(wl, tape, rc)
	if err != nil {
		return err
	}
	txnC, err := replayTxnlog(wl, v.st, tape, rc)
	if err != nil {
		return err
	}
	below := rc.childNs // core, vlog and txnlog are below the store; wire is beside it
	wt, err := replayWire(wl, tape, rc)
	if err != nil {
		return err
	}

	top := [][]span{storeSpans}
	if !wl.net {
		// In process the store's per-call numbers come from the traced
		// round, under the workload's real concurrency.
		top = t.spans
	}
	topStats, replayStats := collectSpans(top...), collectSpans(storeSpans, rc.spans)
	for kind := uint8(0); kind < numKinds; kind++ {
		name, scale := "store."+kindNames[kind]+"_ns", 1.0
		if kind >= opScan {
			name, scale = "store."+kindNames[kind]+"_us", 1e-3
		}
		res.set(name, topStats.median(layerStore, kind)*scale)
	}
	selfFrac := func(class int) float64 {
		var total float64
		for kind := uint8(0); kind < numKinds; kind++ {
			if classOf(kind) == class {
				total += replayStats.total(layerStore, kind)
			}
		}
		if total == 0 {
			return 0
		}
		return 1 - below[class]/total
	}
	res.set("store.self_frac_read", selfFrac(classRead))
	res.set("store.self_frac_write", selfFrac(classWrite))
	maxWrite := 0.0
	for _, s := range all {
		maxWrite = max(maxWrite, s.maxWrite)
	}
	res.set("store.write_max_us", maxWrite/1e3)
	res.set("store.check_s", v.checkS)
	res.set("store.transient_read_misses", float64(r.workers[0].transient+r.workers[1].transient))
	res.setRange("store.reopen_s", v.reopenS, pickLow, 0)
	// The tails are the top layer's: timed at the Session call in process,
	// observed by the client behind the network.
	tails := map[bool]string{false: "store.", true: "client."}
	for _, c := range []struct {
		class int
		name  string
	}{{classRead, "read_p99_us"}, {classWrite, "write_p99_us"}} {
		res.set(tails[!wl.net]+c.name, 0)
		res.setRange(tails[wl.net]+c.name, col(func(s roundStats) float64 { return s.p99[c.class] / 1e3 }), pickLow, sumSamples(t.rounds, c.class))
	}

	res.set("core.get_ns", replayStats.median(layerCore, coreGet))
	res.set("core.insert_ns", replayStats.median(layerCore, coreInsert))
	res.set("core.delete_ns", replayStats.median(layerCore, coreDelete))
	res.set("core.scan_ns_per_pair", div(replayStats.total(layerCore, coreScan), float64(coreC[coreScan].pairs)))
	res.set("core.loads_per_get", coreC[coreGet].per(coreC[coreGet].loads))
	res.set("core.charged_reads_per_get", coreC[coreGet].per(coreC[coreGet].charged))
	res.set("core.flushed_lines_per_insert", coreC[coreInsert].per(coreC[coreInsert].flushed))
	res.set("core.fences_per_insert", coreC[coreInsert].per(coreC[coreInsert].fences))
	res.set("core.flushed_lines_per_delete", coreC[coreDelete].per(coreC[coreDelete].flushed))

	res.set("vlog.append_ns", replayStats.median(layerVlog, vlogAppend))
	res.set("vlog.read_ns", replayStats.median(layerVlog, vlogRead))
	res.set("vlog.flushed_lines_per_append", vlogC[vlogAppend].per(vlogC[vlogAppend].flushed))
	res.set("vlog.fences_per_append", vlogC[vlogAppend].per(vlogC[vlogAppend].fences))

	res.set("txnlog.append_ns", replayStats.median(layerTxnlog, txnAppend))
	res.set("txnlog.truncate_ns", replayStats.median(layerTxnlog, txnTruncate))
	res.set("txnlog.flushed_lines_per_append", txnC[txnAppend].per(txnC[txnAppend].flushed))
	res.set("txnlog.fences_per_append", txnC[txnAppend].per(txnC[txnAppend].fences))

	res.set("wire.encode_req_ns", replayStats.median(layerWire, wireEncodeReq))
	res.set("wire.decode_req_ns", replayStats.median(layerWire, wireDecodeReq))
	res.set("wire.encode_resp_ns", replayStats.median(layerWire, wireEncodeResp))
	res.set("wire.decode_resp_ns", replayStats.median(layerWire, wireDecodeResp))
	res.set("wire.req_bytes_per_op", div(float64(wt.reqBytes), float64(wt.trips)))
	res.set("wire.resp_bytes_per_op", div(float64(wt.respBytes), float64(wt.trips)))
	res.set("wire.allocs_per_roundtrip", div(float64(wt.mallocs), float64(wt.trips)))

	sv := t.srv
	svOps := float64(sv.Ops)
	res.set("server.ops_per_read_batch", div(svOps, float64(sv.ReadBatches)))
	res.set("server.ops_per_flush", div(svOps, float64(sv.Flushes)))
	res.set("server.inline_frac", div(float64(sv.InlineOps), svOps))
	res.set("server.bytes_in_per_op", div(float64(sv.BytesIn), svOps))
	res.set("server.bytes_out_per_op", div(float64(sv.BytesOut), svOps))
	res.set("server.errors", float64(sv.Errors))
	res.set("server.shed", float64(sv.Shed))
	// The stage histograms are per opcode; the workload's read opcode is
	// the bulk of its requests.
	readOp := map[int]string{wlNetPipelined: "Get", wlNetBytes: "GetV"}[wl.id]
	for _, st := range []struct{ metric, stage string }{{"queue", "queue"}, {"execute", "execute"}, {"flushwait", "flush"}} {
		q := t.stage[fmt.Sprintf(`pmkv_server_request_stage_seconds{op=%q,stage=%q}`, readOp, st.stage)]
		res.set("server."+st.metric+"_p50_us", q[0])
		res.set("server."+st.metric+"_p99_us", q[1])
	}
	request := t.stage[`pmkv_server_request_seconds{class="read"}`]
	res.set("server.request_p50_us", request[0])
	res.set("server.request_p99_us", request[1])

	res.set("client.issue_ns", 0)
	res.set("client.window_mean", 0)
	res.set("client.rtt_minus_server_p50_us", 0)
	if wl.net {
		res.setRange("client.issue_ns", col(func(s roundStats) float64 { return s.issueP50 }), pickLow, 0)
		res.setRange("client.window_mean", col(func(s roundStats) float64 { return s.window }), pickMedian, 0)
		res.set("client.rtt_minus_server_p50_us", pickLow.of(col(func(s roundStats) float64 { return s.p50[classRead] }))/1e3-request[0])
	}

	mops := float64(t.measuredOps) / 1e6
	res.set("proc.cpu_s_per_mop", (t.proc1.cpu-t.proc0.cpu)/mops)
	res.set("proc.allocs_per_op", float64(t.proc1.mallocs-t.proc0.mallocs)/float64(t.measuredOps))
	res.set("proc.alloc_bytes_per_op", float64(t.proc1.bytes-t.proc0.bytes)/float64(t.measuredOps))
	res.set("proc.gc_pause_ms", float64(t.proc1.gcPauses-t.proc0.gcPauses)/1e6)
	res.set("proc.trace_overhead_frac", 1-t.round.opsPerS/t.untracedOpsPerS)

	return writeSpans(r.cfg.outDir, wl.name, append(t.spans, storeSpans, rc.spans)...)
}
