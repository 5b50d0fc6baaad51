package pmem

import (
	"fmt"
	"iter"
	"math/rand"
)

// The crash simulator answers the question the paper's power-off experiments
// ask: "which arena images can persistent memory legally contain after an
// untimely crash?" It records every crash-visible store, flush, and fence in
// program order and then materialises legal post-crash images.
//
// Legality rules, matching the hardware contract in §II of the paper:
//
//   - A store is *guaranteed* persistent once a Flush covering its line
//     completes after it (clflush_with_mfence is synchronous here, i.e. the
//     strict persistency model the paper assumes in §III).
//   - Stores to a line after its last completed flush ("pending" stores) may
//     or may not have been evicted. Under TSO any program-order prefix of a
//     line's pending stores may survive. Under NonTSO the only ordering is
//     supplied by StoreFence: pending stores between two fences may survive
//     in any subset, and a surviving store implies all pending same-line
//     stores from *earlier* fence epochs survived (fences order them).
//
// These rules are strictly more adversarial than a physical power-off test,
// which samples only a few of the states this simulator can enumerate.

type recKind uint8

const (
	recStore recKind = iota
	recFlush
	recFence
	recSFence
	recMark
)

type logRec struct {
	kind recKind
	off  int64  // recStore: word offset; recFlush: line index; recMark: user tag
	val  uint64 // recStore: stored value
}

type crashLog struct {
	base []uint64 // arena snapshot at log start
	recs []logRec
}

func newCrashLog() *crashLog { return &crashLog{} }

func (l *crashLog) appendStore(off int64, val uint64) {
	l.recs = append(l.recs, logRec{kind: recStore, off: off, val: val})
}
func (l *crashLog) appendFlush(line int64) {
	l.recs = append(l.recs, logRec{kind: recFlush, off: line})
}
func (l *crashLog) appendFence()  { l.recs = append(l.recs, logRec{kind: recFence}) }
func (l *crashLog) appendSFence() { l.recs = append(l.recs, logRec{kind: recSFence}) }

// StartCrashLog snapshots the current arena as the known-persistent image
// and begins recording. It panics if the pool was not created with
// TrackCrashes. Calling it again truncates the previous log. The snapshot
// stops at the allocator's high-water mark (see Clone).
func (p *Pool) StartCrashLog() {
	if p.log == nil {
		panic("pmem: pool not created with TrackCrashes")
	}
	p.logMu.Lock()
	defer p.logMu.Unlock()
	base := make([]uint64, p.alloc.highWater()/WordSize)
	copy(base, p.words)
	p.log.base = base
	p.log.recs = p.log.recs[:0]
}

// Mark appends a user-visible marker (e.g. an operation boundary) to the
// log and returns its position. Crash points at or before a marker include
// only operations completed before it.
func (p *Pool) Mark(tag int64) int {
	if p.log == nil {
		panic("pmem: pool not created with TrackCrashes")
	}
	p.logMu.Lock()
	defer p.logMu.Unlock()
	p.log.recs = append(p.log.recs, logRec{kind: recMark, off: tag})
	return len(p.log.recs)
}

// LogLen returns the number of records currently logged. Crash points range
// over [0, LogLen].
func (p *Pool) LogLen() int {
	if p.log == nil {
		return 0
	}
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return len(p.log.recs)
}

// CrashMode selects how pending (unflushed) stores survive a crash.
type CrashMode int

const (
	// CrashNone persists nothing beyond the flush guarantees: every
	// dirty line reverts to its last flushed contents.
	CrashNone CrashMode = iota
	// CrashAll persists every store issued before the crash point, as if
	// all dirty lines were evicted at the instant of failure.
	CrashAll
	// CrashRandom picks, per line, a random legal survivor set (prefix
	// under TSO, fence-epoch-consistent subset under NonTSO).
	CrashRandom
)

// CrashModes lists every CrashMode, in the order crash matrices visit them.
var CrashModes = []CrashMode{CrashNone, CrashAll, CrashRandom}

func (m CrashMode) String() string {
	switch m {
	case CrashNone:
		return "CrashNone"
	case CrashAll:
		return "CrashAll"
	case CrashRandom:
		return "CrashRandom"
	}
	return fmt.Sprintf("CrashMode(%d)", int(m))
}

// CrashPoint names one crash image: the number of log records that reached
// the device before the crash, and how the pending ones survive.
type CrashPoint struct {
	Point int
	Mode  CrashMode
}

func (c CrashPoint) String() string { return fmt.Sprintf("point %d %v", c.Point, c.Mode) }

// CrashImages yields the image of every crash point in [0, LogLen()] under
// every mode of CrashModes, point-major. Each image is built by CrashImage
// with rng just before it is yielded, so the images and all later rng draws,
// including any the loop body makes, are exactly those of the hand-written
// loop `for point { for mode { CrashImage(point, mode, rng) } }`.
func (p *Pool) CrashImages(rng *rand.Rand) iter.Seq2[CrashPoint, *Pool] {
	return func(yield func(CrashPoint, *Pool) bool) {
		for point, end := 0, p.LogLen(); point <= end; point++ {
			for _, mode := range CrashModes {
				if !yield(CrashPoint{point, mode}, p.CrashImage(point, mode, rng)) {
					return
				}
			}
		}
	}
}

// CrashImage materialises a legal post-crash pool image, crashing after the
// first `point` log records (so point = LogLen() crashes "now", point = 0
// crashes immediately after StartCrashLog). rng is used only by CrashRandom
// and may be nil otherwise. The returned pool has crash tracking disabled; its
// arena is the only one the image allocates.
func (p *Pool) CrashImage(point int, mode CrashMode, rng *rand.Rand) *Pool {
	if p.log == nil {
		panic("pmem: pool not created with TrackCrashes")
	}
	p.logMu.Lock()
	defer p.logMu.Unlock()
	if point < 0 || point > len(p.log.recs) {
		panic("pmem: crash point out of range")
	}
	if p.log.base == nil {
		panic("pmem: StartCrashLog not called")
	}

	words := make([]uint64, len(p.words))
	copy(words, p.log.base)

	// pending[line] holds stores since that line's last flush, annotated
	// with the fence epoch they belong to (NonTSO only).
	type pstore struct {
		off   int64
		val   uint64
		epoch int
	}
	pending := make(map[int64][]pstore)
	epoch := 0

	apply := func(off int64, val uint64) { words[off/WordSize] = val }

	for i := 0; i < point; i++ {
		r := p.log.recs[i]
		switch r.kind {
		case recStore:
			line := r.off / LineSize
			pending[line] = append(pending[line], pstore{r.off, r.val, epoch})
		case recFlush:
			// The flush persists all pending stores to the line.
			for _, s := range pending[r.off] {
				apply(s.off, s.val)
			}
			delete(pending, r.off)
		case recSFence:
			epoch++
		case recFence, recMark:
		}
	}

	switch mode {
	case CrashNone:
		// Pending stores are lost.
	case CrashAll:
		for _, stores := range pending {
			for _, s := range stores {
				apply(s.off, s.val)
			}
		}
	case CrashRandom:
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		// Deterministic line order for reproducibility.
		lines := make([]int64, 0, len(pending))
		for ln := range pending {
			lines = append(lines, ln)
		}
		sortInt64s(lines)
		for _, ln := range lines {
			stores := pending[ln]
			if p.cfg.Model == TSO {
				// Any program-order prefix.
				cut := rng.Intn(len(stores) + 1)
				for _, s := range stores[:cut] {
					apply(s.off, s.val)
				}
				continue
			}
			// NonTSO: choose a cut epoch; all earlier epochs
			// survive in full, the cut epoch survives as an
			// arbitrary subset with arbitrary per-word winner.
			maxEpoch := stores[len(stores)-1].epoch
			cutEpoch := stores[0].epoch + rng.Intn(maxEpoch-stores[0].epoch+1)
			// Collect the cut epoch's stores per word, applying
			// earlier epochs directly.
			perWord := make(map[int64][]uint64)
			order := make([]int64, 0, 4)
			for _, s := range stores {
				switch {
				case s.epoch < cutEpoch:
					apply(s.off, s.val)
				case s.epoch == cutEpoch:
					if _, seen := perWord[s.off]; !seen {
						order = append(order, s.off)
					}
					perWord[s.off] = append(perWord[s.off], s.val)
				}
			}
			for _, w := range order {
				vals := perWord[w]
				// 0 = the word retains its pre-epoch value.
				pick := rng.Intn(len(vals) + 1)
				if pick > 0 {
					apply(w, vals[pick-1])
				}
			}
		}
	}

	cfg := p.cfg
	cfg.TrackCrashes = false
	return newPool(cfg, words, p.alloc.highWater())
}

func sortInt64s(v []int64) {
	// Insertion sort: line sets per crash image are small.
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
