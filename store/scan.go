package store

import (
	"container/heap"
	"sync"
	"time"
)

// Scan visits pairs with lo <= key <= hi in ascending global key order,
// calling fn until it returns false. Shards hold disjoint hash partitions
// whose individual scans are ordered, so the global order is a k-way merge:
// each shard streams its range on its own goroutine (using that shard's
// session thread) and the caller's goroutine merges the streams with a heap.
// Per shard the scan has the paper's read-uncommitted semantics under
// concurrent writers; there is no cross-shard snapshot. fn runs on the
// caller's goroutine and outside every grace section, so it may use the
// store through another session, GC passes included. On a closed store it
// returns ErrClosed without visiting anything; the store cannot close mid-
// scan (the whole merge holds one in-flight reference).
func (ss *Session) Scan(lo, hi uint64, fn func(key, val uint64) bool) error {
	if hi < lo {
		return nil
	}
	if !ss.s.acquire() {
		return ErrClosed
	}
	defer ss.s.release()
	n := len(ss.ths)
	done := make(chan struct{})
	var wg sync.WaitGroup
	cursors := make([]*cursor, n)
	for i := 0; i < n; i++ {
		c := &cursor{ch: make(chan KV, scanBuf)}
		cursors[i] = c
		wg.Add(1)
		go func(i int, c *cursor) {
			defer wg.Done()
			defer close(c.ch)
			ix, th := ss.s.shards[i].ix, ss.ths[i]
			// The tree runs its callback inside a grace section, and
			// the channel send waits on fn — the caller's code, which
			// may itself write, compact or just take its time. So a
			// page is collected inside the tree scan and handed over
			// outside it, the scan resuming after the page's last key.
			page := make([]KV, 0, scanBuf)
			for next := lo; ; {
				page = page[:0]
				ix.Scan(th, next, hi, func(k, v uint64) bool {
					page = append(page, KV{k, v})
					return len(page) < scanBuf
				})
				for _, kv := range page {
					select {
					case c.ch <- kv:
					case <-done:
						return
					}
				}
				if len(page) < scanBuf || page[len(page)-1].Key == hi {
					return
				}
				next = page[len(page)-1].Key + 1
			}
		}(i, c)
	}
	// Always release the producers, even when fn stops the merge early.
	defer wg.Wait()
	defer close(done)

	h := make(mergeHeap, 0, n)
	for _, c := range cursors {
		if c.advance() {
			h = append(h, c)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		c := h[0]
		if !fn(c.cur.Key, c.cur.Val) {
			return nil
		}
		if c.advance() {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

// ScanLimit collects at most max pairs with lo <= key <= hi in ascending
// global key order and returns them in a session-owned slice, valid until
// the next ScanLimit on the same session. It is the bounded, allocation-free
// counterpart to Scan, built for the server's paged Scan requests: each
// shard's range is collected sequentially (capped at max pairs per shard)
// into buffers the session reuses, then the sorted per-shard runs are merged
// with cursors — no goroutines, no channels, and in steady state no heap
// allocations. The trade against the streaming Scan is over-collection:
// because any shard alone could hold the max globally-smallest keys, up to
// shards x max pairs are read to return max, so ScanLimit suits the
// page-sized limits the server issues, while unbounded iteration belongs on
// Scan. Buffers beyond scanRetainCap are released after the merge, so one
// huge request does not pin its high-water memory on the session. Per shard
// the collection has the paper's read-uncommitted semantics, like Scan. On
// a closed store it returns ErrClosed.
func (ss *Session) ScanLimit(lo, hi uint64, max int) ([]KV, error) {
	if hi < lo || max <= 0 {
		return nil, nil
	}
	if !ss.s.acquire() {
		return nil, ErrClosed
	}
	defer ss.s.release()
	if ss.sampleOp() {
		defer ss.s.met.scan.RecordSince(time.Now())
	}
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
	ss.scanMax = max
	for i := 0; i < n; i++ {
		ss.scanBufs[i] = ss.scanBufs[i][:0]
		ss.s.shards[i].ix.Scan(ss.ths[i], lo, hi, ss.collect[i])
	}
	// Merge the sorted per-shard runs by repeated minimum selection; shard
	// counts are small enough that a heap would cost more than it saves.
	out := ss.scanOut[:0]
	cur := ss.scanCur
	for i := range cur {
		cur[i] = 0
	}
	for len(out) < max {
		best := -1
		for i := 0; i < n; i++ {
			if cur[i] < len(ss.scanBufs[i]) &&
				(best < 0 || ss.scanBufs[i][cur[i]].Key < ss.scanBufs[best][cur[best]].Key) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, ss.scanBufs[best][cur[best]])
		cur[best]++
	}
	ss.scanOut = out
	for i := range ss.scanBufs {
		if cap(ss.scanBufs[i]) > scanRetainCap {
			ss.scanBufs[i] = nil
		}
	}
	if cap(ss.scanOut) > scanRetainCap {
		ss.scanOut = nil // out itself stays alive with the caller
	}
	return out, nil
}

// scanRetainCap bounds the pairs a session keeps cached per ScanLimit
// buffer between calls (64 KiB each at 16 B/pair). Typical server pages
// stay allocation-free; a one-off huge scan gives its memory back.
const scanRetainCap = 4096

// scanBuf is the per-shard stream buffer; deep enough to keep producers
// running ahead of the merge, shallow enough that an early stop wastes
// little work.
const scanBuf = 64

type cursor struct {
	ch  chan KV
	cur KV
}

// advance pulls the cursor's next pair, reporting whether one exists.
func (c *cursor) advance() bool {
	kv, ok := <-c.ch
	c.cur = kv
	return ok
}

type mergeHeap []*cursor

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i].cur.Key < h[j].cur.Key }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(*cursor)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
