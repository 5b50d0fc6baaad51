package store

// Scan visits pairs with lo <= key <= hi in ascending global key order,
// calling fn until it returns false. Shards hold disjoint hash partitions
// whose individual scans are ordered, so the global order is a k-way merge
// of per-shard paged cursors (mergeScan), run to exhaustion on the caller's
// goroutine with the session's own shard threads. Per shard the scan has the
// paper's read-uncommitted semantics under concurrent writers; there is no
// cross-shard snapshot. fn runs outside every grace section, so it may use
// the store — through another session, GC passes included, or through this
// one for anything but another u64 scan, which would reuse the cursors. On
// a closed store it returns ErrClosed without visiting anything; the store
// cannot close mid-scan (the whole merge holds one in-flight reference).
func (ss *Session) Scan(lo, hi uint64, fn func(key, val uint64) bool) error {
	if hi < lo {
		return nil
	}
	if !ss.s.acquire() {
		return ErrClosed
	}
	defer ss.s.release()
	ss.mergeScan(lo, hi, scanPage, 0, fn)
	return nil
}

// ScanLimit collects at most max pairs with lo <= key <= hi in ascending
// global key order and returns them in a session-owned slice, valid until
// the next ScanLimit on the same session. It is the bounded, allocation-free
// counterpart to Scan, built for the server's paged Scan requests: the same
// cursor walk (mergeScan) stopped at max pairs, with a first page of max per
// shard — so no cursor ever runs dry before the walk stops, and each shard's
// range is read exactly once into buffers the session reuses. The trade
// against the streaming Scan is over-collection: because any shard alone
// could hold the max globally-smallest keys, up to shards x max pairs are
// read to return max, so ScanLimit suits the page-sized limits the server
// issues, while unbounded iteration belongs on Scan. Buffers beyond
// scanRetainCap are released after the merge, so one huge request does not
// pin its high-water memory on the session. Per shard the collection has the
// paper's read-uncommitted semantics, like Scan. On a closed store it
// returns ErrClosed.
func (ss *Session) ScanLimit(lo, hi uint64, max int) ([]KV, error) {
	if hi < lo || max <= 0 {
		return nil, nil
	}
	t0, err := ss.gate(false)
	if err != nil {
		return nil, err
	}
	defer ss.done(opScan, t0)
	return ss.collectLimit(lo, hi, max), nil
}

// collectLimit is ScanLimit's body without its gate and latency sample,
// shared with ScanBytes so that one ScanBytes call is one sample, under its
// own op. The caller holds the close gate.
func (ss *Session) collectLimit(lo, hi uint64, max int) []KV {
	ss.scanOut = ss.scanOut[:0]
	ss.mergeScan(lo, hi, max, max, func(k, v uint64) bool {
		ss.scanOut = append(ss.scanOut, KV{k, v})
		return true
	})
	out := ss.scanOut
	if cap(out) > scanRetainCap {
		ss.scanOut = nil // out itself stays alive with the caller
	}
	return out
}

// mergeScan is the one walk behind Scan and ScanLimit: a k-way merge over
// one paged cursor per shard (ss.scanBufs[i] is shard i's current page,
// ss.scanCur[i] the position in it), emitting pairs in ascending key order
// until emit returns false, max pairs went out (max <= 0: no bound), or
// every cursor is exhausted. Pages hold up to page pairs; only the shard
// whose page ran dry is refilled, from its own last key + 1, and a short
// page marks its shard exhausted. The merge is by repeated minimum: shard
// counts are small enough that a heap would cost more than it saves.
//
// The tree runs a scan's callback inside a grace section, and emit is the
// caller's code, which may itself write, compact or just take its time. So
// a page is collected inside the tree scan and emitted outside it — emit
// never runs under a section, and a long walk never holds reclamation up
// for more than one page.
func (ss *Session) mergeScan(lo, hi uint64, page, max int, emit func(key, val uint64) bool) {
	n := len(ss.ths)
	if ss.scanBufs == nil {
		// First use: build the per-shard collector closures once, so
		// later calls create no func values.
		ss.scanBufs = make([][]KV, n)
		ss.scanCur = make([]int, n)
		ss.collect = make([]func(uint64, uint64) bool, n)
		for i := range ss.collect {
			i := i
			ss.collect[i] = func(k, v uint64) bool {
				ss.scanBufs[i] = append(ss.scanBufs[i], KV{k, v})
				return len(ss.scanBufs[i]) < ss.scanMax
			}
		}
	}
	ss.scanMax = page
	bufs, cur := ss.scanBufs, ss.scanCur
	for i := 0; i < n; i++ {
		ss.fillPage(i, lo, hi)
	}
	for emitted := 0; ; {
		best := -1
		for i := 0; i < n; i++ {
			if cur[i] < len(bufs[i]) && (best < 0 || bufs[i][cur[i]].Key < bufs[best][cur[best]].Key) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		kv := bufs[best][cur[best]]
		cur[best]++
		emitted++
		if !emit(kv.Key, kv.Val) || emitted == max {
			break
		}
		if cur[best] == page && kv.Key < hi {
			ss.fillPage(best, kv.Key+1, hi)
		}
	}
	for i := range bufs {
		if cap(bufs[i]) > scanRetainCap {
			bufs[i] = nil
		}
	}
}

// fillPage collects shard i's next page, the first up-to-scanMax pairs of
// [from, hi], and rewinds its cursor.
func (ss *Session) fillPage(i int, from, hi uint64) {
	ss.scanBufs[i], ss.scanCur[i] = ss.scanBufs[i][:0], 0
	ss.s.shards[i].ix.Scan(ss.ths[i], from, hi, ss.collect[i])
}

// scanRetainCap bounds the pairs a session keeps cached per scan buffer
// between calls (64 KiB each at 16 B/pair). Typical server pages stay
// allocation-free; a one-off huge scan gives its memory back.
const scanRetainCap = 4096

// scanPage is Scan's per-shard page: deep enough to amortise a tree descent
// over many pairs, shallow enough that an early stop wastes little work.
const scanPage = 64
