package pmem

import (
	"sync/atomic"
	"time"
	"unsafe"
)

// Phase labels the logical activity a thread is performing, so harnesses can
// attribute elapsed time the way Figure 5(a) of the paper does.
type Phase int

const (
	// PhaseOther is the default attribution bucket.
	PhaseOther Phase = iota
	// PhaseSearch covers tree traversal and in-node key search.
	PhaseSearch
	// PhaseUpdate covers in-node modification (shifting, appends, splits).
	PhaseUpdate
	// PhaseFlush is credited the write latency charged to emulated
	// cache-line write-backs. Callers do not set it directly.
	PhaseFlush
	numPhases
)

func (ph Phase) String() string {
	switch ph {
	case PhaseSearch:
		return "search"
	case PhaseUpdate:
		return "update"
	case PhaseFlush:
		return "clflush"
	default:
		return "other"
	}
}

// Stats counts the memory-system events a thread generated. Counters mirror
// the quantities the paper reports: flush calls per insert, fence counts, and
// serial (latency-charged) line accesses standing in for effective LLC
// misses.
type Stats struct {
	Loads        uint64 // word loads issued
	Stores       uint64 // word stores issued
	ChargedReads uint64 // serial line accesses that paid PM read latency
	FlushedLines uint64 // cache lines written back by Flush/Persist
	FlushCalls   uint64 // Flush/Persist invocations
	Fences       uint64 // ordering fences (clflush barriers)
	StoreFences  uint64 // store-store fences (NonTSO dmb); 0 on TSO

	// RetiredBlocks counts blocks handed to Pool.Retire. RecycledBlocks
	// counts allocations served from a free list; the allocator keeps it,
	// so it is set only in Pool.TotalStats. A pool whose retired count
	// keeps rising while its recycled count does not is leaking.
	RetiredBlocks  uint64
	RecycledBlocks uint64

	// PhaseTime attributes time to phases. Index with Phase. The search,
	// update and other slots hold wall-clock time, read stalls included,
	// and only on threads that called TimePhases; PhaseFlush holds the
	// write latency charged (flushed lines × WriteLatency) on every thread.
	PhaseTime [numPhases]time.Duration
}

func (s *Stats) add(o Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.ChargedReads += o.ChargedReads
	s.FlushedLines += o.FlushedLines
	s.FlushCalls += o.FlushCalls
	s.Fences += o.Fences
	s.StoreFences += o.StoreFences
	s.RetiredBlocks += o.RetiredBlocks
	s.RecycledBlocks += o.RecycledBlocks
	for i := range s.PhaseTime {
		s.PhaseTime[i] += o.PhaseTime[i]
	}
}

// Add merges o into s.
func (s *Stats) Add(o Stats) { s.add(o) }

// cacheSlots is the size of the per-thread direct-mapped line-tag cache used
// by the read-latency model. 4096 lines × 64 B models a 256 KiB slice of
// cache per thread — small enough that big-tree traversals miss, large
// enough that hot upper levels hit, which is the behaviour the paper's
// Quartz setup produces.
const cacheSlots = 4096

// Thread is a per-goroutine context for pool access. It carries the latency
// model's state (last line touched, simulated cache tags, stall overshoot),
// statistics, and the phase timer. Threads must not be shared between
// goroutines.
type Thread struct {
	p *Pool

	Stats Stats

	lastLine int64
	tags     [cacheSlots]int64

	// carry is the time the thread's stalls have spun past their
	// configured latencies, repaid by its next stall (see spin).
	carry time.Duration

	// phase is the open phase. Only a timed thread (TimePhases) reads the
	// clock for it: phaseStart is then the clock reading at which it
	// opened, or 0 when none is open.
	phase      Phase
	timed      bool
	phaseStart time.Duration

	// Grace-period state (see epoch.go): section nesting depth, whether
	// the pool's scans know this thread, the blocks it retired that are
	// not yet free, and the retires since its last reclaim attempt.
	depth        int
	registered   bool
	limbo        []retired
	sinceReclaim int
	slot         epochSlot
}

// Pool returns the pool this thread operates on.
func (t *Thread) Pool() *Pool { return t.p }

func (t *Thread) resetCache() {
	t.lastLine = -1
	for i := range t.tags {
		t.tags[i] = -1
	}
}

// Release folds the thread's statistics into the pool aggregate and resets
// them, frees what it can of the thread's limbo and leaves the rest with the
// pool, and takes the thread out of the grace-period scans. The thread may
// be used again: its next Enter registers it anew.
func (t *Thread) Release() {
	t.EndPhase()
	if len(t.limbo) > 0 {
		t.p.reclaim(t)
	}
	t.p.unregister(t)
	t.p.AddStats(t.Stats)
	t.Stats = Stats{}
}

// TimePhases makes the thread time its phases: BeginPhase and EndPhase then
// read the clock and add each closed phase's wall-clock time to
// Stats.PhaseTime. On any other thread they only set the phase, so a
// harness that reports no phase breakdown pays no clock reads per
// operation.
func (t *Thread) TimePhases() { t.timed = true }

// BeginPhase starts attributing time to ph, closing any open phase first.
func (t *Thread) BeginPhase(ph Phase) {
	if t.timed {
		now := clock()
		if t.phaseStart != 0 {
			t.Stats.PhaseTime[t.phase] += now - t.phaseStart
		}
		t.phaseStart = now
	}
	t.phase = ph
}

// EndPhase closes the open phase, attributing its elapsed time.
func (t *Thread) EndPhase() {
	if t.phaseStart != 0 {
		t.Stats.PhaseTime[t.phase] += clock() - t.phaseStart
		t.phaseStart = 0
	}
	t.phase = PhaseOther
}

// Load performs a latency-modelled 8-byte atomic load. off must be 8-byte
// aligned and inside the arena.
func (t *Thread) Load(off int64) uint64 {
	t.Stats.Loads++
	if t.p.cfg.ReadLatency > 0 {
		t.chargeRead(off / LineSize)
	}
	return t.p.rawLoad(off)
}

// WordsPerLine is the number of 8-byte words in one cache line.
const WordsPerLine = LineSize / WordSize

// LoadLine performs a latency-modelled read of the whole cache line holding
// off, depositing its 8 words into dst in ascending address order. Each word
// is read atomically (the snapshot is word-atomic, not line-atomic: a
// concurrent writer may be observed mid-line, exactly as a per-word ascending
// scan would observe it). The line is charged once — one latency-model
// lookup, at most one ChargedReads increment — and the word loads are
// counted in batch, so Stats.Loads still reflects words read while
// ChargedReads keeps its one-per-serial-line meaning.
//
// Line-granular readers (the FAST+FAIR in-node search) use LoadLine for the
// scan and fall back to per-word Loads only to confirm candidate hits.
func (t *Thread) LoadLine(off int64, dst *[WordsPerLine]uint64) {
	t.Stats.Loads += WordsPerLine
	line := off / LineSize
	if t.p.cfg.ReadLatency > 0 {
		t.chargeRead(line)
	}
	w := line * WordsPerLine
	for i := range dst {
		dst[i] = atomic.LoadUint64(&t.p.words[w+int64(i)])
	}
}

// LoadLineRev is LoadLine with the words read in descending address order.
// Right-to-left scans (the FAST+FAIR delete-direction protocol) need the
// descending order: an entry shifting left between two word reads must be
// seen at its old slot or its new one, which only holds when the reader's
// word order opposes the writer's shift order.
func (t *Thread) LoadLineRev(off int64, dst *[WordsPerLine]uint64) {
	t.Stats.Loads += WordsPerLine
	line := off / LineSize
	if t.p.cfg.ReadLatency > 0 {
		t.chargeRead(line)
	}
	w := line * WordsPerLine
	for i := WordsPerLine - 1; i >= 0; i-- {
		dst[i] = atomic.LoadUint64(&t.p.words[w+int64(i)])
	}
}

// Prefetch asks the CPU to start filling the n lines from off, which must
// lie in the arena, into its cache, so a read of them issued later does not
// wait out the miss. It is a hint for real hardware only: it reads nothing,
// counts as neither a load nor a charged read, and leaves the latency
// model's state alone.
func (t *Thread) Prefetch(off int64, n int) {
	prefetchLines(unsafe.Pointer(&t.p.words[off/WordSize]), n)
}

// readAhead is the span a charged read asks the host to start filling as
// its stall opens: the charged line and the 7 after it, the run the
// sequential rule then reads free.
const readAhead = 512

// chargeRead implements the serial-access read model: an access to the same
// or the next cache line is free (prefetcher / open row), an access to a
// line whose tag is resident in the thread's simulated cache is free, and
// everything else stalls for the configured PM read latency.
//
// A charged read starts the host's fill of readAhead bytes from its line,
// clamped to the arena, as its stall opens, so the host's own miss runs
// under the stall: the read costs the larger of the configured latency
// and that miss, not their sum, as a Quartz-emulated miss costs the PM
// latency in total. Uncharged lines are the host's ordinary loads.
func (t *Thread) chargeRead(line int64) {
	if line == t.lastLine || line == t.lastLine+1 {
		t.lastLine = line
		t.install(line)
		return
	}
	t.lastLine = line
	slot := line & (cacheSlots - 1)
	if t.tags[slot] == line {
		return
	}
	t.tags[slot] = line
	t.Stats.ChargedReads++
	n := min(readAhead/LineSize, int64(len(t.p.words))/WordsPerLine-line)
	t.spin(t.p.cfg.ReadLatency, unsafe.Pointer(&t.p.words[line*WordsPerLine]), int(n))
}

func (t *Thread) install(line int64) {
	t.tags[line&(cacheSlots-1)] = line
}

// Store performs an 8-byte atomic store. The store lands in the simulated
// cache: it reaches persistence only via Flush/Persist or (after a crash)
// the crash simulator's eviction model.
func (t *Thread) Store(off int64, val uint64) {
	t.Stats.Stores++
	t.p.storeWord(off, val, true)
}

// StoreVolatile stores a word that is deliberately excluded from the crash
// model: after a simulated crash the word reverts to an arbitrary stale
// value. Use it for fields recovery must not trust (lock words, cached
// counts).
func (t *Thread) StoreVolatile(off int64, val uint64) {
	t.Stats.Stores++
	t.p.storeWord(off, val, false)
}

// CAS performs a crash-visible compare-and-swap: on success the store joins
// the crash log like a Store. Lock-free persistent structures (the skiplist
// baseline) link nodes with it.
func (t *Thread) CAS(off int64, old, new uint64) bool {
	t.Stats.Loads++
	if t.p.log != nil {
		// Serialise with the log so log order equals apply order.
		t.p.logMu.Lock()
		ok := atomic.CompareAndSwapUint64(&t.p.words[off/WordSize], old, new)
		if ok {
			t.Stats.Stores++
			t.p.log.appendStore(off, new)
		}
		t.p.logMu.Unlock()
		return ok
	}
	ok := atomic.CompareAndSwapUint64(&t.p.words[off/WordSize], old, new)
	if ok {
		t.Stats.Stores++
	}
	return ok
}

// LoadVolatile reads a word with no latency charge, no statistics, and no
// crash-log participation. Use it for volatile control words (locks, cached
// counts) that conceptually live in DRAM next to the structure.
func (t *Thread) LoadVolatile(off int64) uint64 {
	return atomic.LoadUint64(&t.p.words[off/WordSize])
}

// CASVolatile performs a compare-and-swap on a volatile control word. Like
// StoreVolatile, it is excluded from the crash model.
func (t *Thread) CASVolatile(off int64, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&t.p.words[off/WordSize], old, new)
}

// StoreFence orders earlier stores before later ones on NonTSO machines (the
// paper's mfence_IF_NOT_TSO / dmb). On TSO it is free and records nothing:
// hardware already orders store-store pairs.
func (t *Thread) StoreFence() {
	if t.p.cfg.Model != NonTSO {
		return
	}
	t.Stats.StoreFences++
	t.p.logSFence()
	t.stall(t.p.cfg.BarrierLatency)
}

// Flush writes back every cache line overlapping [off, off+size) and fences,
// charging PM write latency per line (the paper's clflush_with_mfence). The
// flushed stores are persistent when Flush returns.
func (t *Thread) Flush(off, size int64) {
	t.Stats.FlushCalls++
	first := off / LineSize
	last := (off + size - 1) / LineSize
	for ln := first; ln <= last; ln++ {
		t.p.logFlush(ln)
	}
	lines := last - first + 1
	t.Stats.FlushedLines += uint64(lines)
	if d := time.Duration(lines) * t.p.cfg.WriteLatency; d > 0 {
		t.stallFlush(d)
	}
	t.Stats.Fences++
	t.p.logFence()
}

// Persist is Flush; the name documents intent at call sites that persist a
// freshly initialised object rather than ordering a protocol step.
func (t *Thread) Persist(off, size int64) { t.Flush(off, size) }

// stall burns CPU for d; the time stays in the open phase. It is the
// emulator's equivalent of Quartz's injected stall cycles.
//
// Accuracy contract: per thread, stalls add up to their configured
// latencies. A stall spins on the monotonic clock, and the overshoot of
// its last clock read is repaid by the thread's next stall (spin). The
// carried overshoot is capped at the stall's own latency, so a thread
// descheduled mid-spin is forgiven rather than repaid with a run of
// zero-length stalls. A stall cannot be shorter than about two clock
// reads, so latencies below that are not emulated faithfully.
func (t *Thread) stall(d time.Duration) {
	if d > 0 {
		t.spin(d, nil, 0)
	}
}

// stallFlush burns CPU for d and credits d, the latency charged, to
// PhaseFlush rather than to the open phase, whose start moves by the
// stall's measured cost so the stall is not counted twice. This is what
// lets harnesses report the clflush / search / node-update breakdown of
// Figure 5(a).
func (t *Thread) stallFlush(d time.Duration) {
	el := t.spin(d, nil, 0)
	t.Stats.PhaseTime[PhaseFlush] += d
	if t.phaseStart != 0 {
		t.phaseStart += el
	}
}

// spin is the one stall primitive. It spins until d, less the thread's
// carried overshoot and the cost of the clock read that opens its window,
// has elapsed on the monotonic clock, reading the clock once per
// iteration and never after the loop. It returns the stall's measured
// cost: the window's last reading plus the opening read. A read stall
// passes the n lines at ahead to prefetch (other stalls pass none); they
// are issued inside the window, so issuing them is priced into the stall.
func (t *Thread) spin(d time.Duration, ahead unsafe.Pointer, n int) time.Duration {
	if t.carry >= d {
		t.carry -= d
		return 0
	}
	want := d - t.carry - clockRead
	start := clock()
	prefetchLines(ahead, n)
	var el time.Duration
	for el < want {
		el = clock() - start
	}
	t.carry = overshoot(d, want, el)
	return el + clockRead
}

// overshoot returns the carry a stall of d leaves behind when its window
// wanted want and measured el: the time spun past want, capped at d.
func overshoot(d, want, el time.Duration) time.Duration {
	return min(el-want, d)
}

// clockEpoch anchors clock's monotonic readings.
var clockEpoch = time.Now()

// clock reads the monotonic clock, in time since clockEpoch; it is
// positive once any time has passed since package initialisation.
func clock() time.Duration { return time.Since(clockEpoch) }

// clockRead is the cost of one clock call: the least mean over a few
// batches, taken once at start-up.
var clockRead = calibrateClock()

func calibrateClock() time.Duration {
	const batches, reads = 5, 64
	best := time.Duration(1<<63 - 1)
	for range batches {
		start := clock()
		for range reads - 1 {
			clock()
		}
		best = min(best, (clock()-start)/reads)
	}
	return best
}

// atomicStore writes val to the word holding off.
func atomicStore(words []uint64, off int64, val uint64) {
	atomic.StoreUint64(&words[off/WordSize], val)
}

// storeWord applies a store and, when logging is enabled and the store is
// crash-visible, appends it to the crash log.
func (p *Pool) storeWord(off int64, val uint64, logged bool) {
	if p.log != nil && logged {
		p.logMu.Lock()
		p.log.appendStore(off, val)
		atomicStore(p.words, off, val)
		p.logMu.Unlock()
		return
	}
	atomicStore(p.words, off, val)
}

func (p *Pool) logFlush(line int64) {
	if p.log == nil {
		return
	}
	p.logMu.Lock()
	p.log.appendFlush(line)
	p.logMu.Unlock()
}

func (p *Pool) logFence() {
	if p.log == nil {
		return
	}
	p.logMu.Lock()
	p.log.appendFence()
	p.logMu.Unlock()
}

func (p *Pool) logSFence() {
	if p.log == nil {
		return
	}
	p.logMu.Lock()
	p.log.appendSFence()
	p.logMu.Unlock()
}
