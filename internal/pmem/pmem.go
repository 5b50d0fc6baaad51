// Package pmem emulates byte-addressable persistent memory for algorithms
// that must reason about 8-byte failure-atomic stores, cache-line flushes,
// and store fences — the hardware contract of the FAST+FAIR paper.
//
// A Pool is a word-addressed arena. All persistent state lives inside the
// arena and references between persistent objects are arena offsets, so a
// pool image is self-contained: it can be snapshotted, subjected to a
// simulated power failure (StartCrashLog, then CrashImage or CrashImages),
// and reopened.
//
// The emulator models three hardware properties:
//
//  1. Failure atomicity of aligned 8-byte stores. Store and Load are
//     implemented with sync/atomic on the backing words.
//  2. The cache hierarchy between CPU and PM. Stores land in a (simulated)
//     cache; they reach PM only when their cache line is explicitly flushed
//     (Flush) or, after a crash, when the crash simulator decides the line
//     was evicted. Flush charges the configured PM write latency per line;
//     Load charges PM read latency per serial line access, with sequential
//     accesses and recently-used lines free (modelling the hardware
//     prefetcher and memory-level parallelism, the effect Quartz models for
//     the paper). A charge is a busy-spin on the monotonic clock, and per
//     thread the spins add up to the configured latencies: each stall
//     repays the overshoot of the one before, carried up to one latency so
//     a descheduled thread is forgiven, and the clock read that opens a
//     spin is priced into it. A charged read starts the host's fill of its
//     line and the 7 after it before it spins, so it costs the larger of
//     the configured latency and the host's own miss, not their sum, as a
//     Quartz-emulated miss costs the PM latency in total; uncharged lines
//     are the host's ordinary loads. Latencies shorter than about two
//     clock reads (≈ 100 ns on a typical host) cannot be emulated
//     faithfully.
//  3. Store ordering. Under TSO, same-line stores persist in program order
//     (any prefix may survive a crash). Under NonTSO, stores may persist in
//     any order unless separated by StoreFence.
//
// Per-goroutine state (latency bookkeeping, statistics, phase timers) lives
// in a Thread; every memory operation goes through a Thread. Phase timers
// are opt-in (Thread.TimePhases): other threads read no clock outside
// their stalls.
//
// # Allocation and reclamation
//
// Alloc is a bump allocator with per-size free lists. Blocks come back by
// one of two doors. Free is immediate and is for callers nobody can race:
// offline maintenance, or a reclaimer that has just returned from
// Synchronize. Retire is for a block that lock-free readers may still hold
// an offset to: it waits in the retiring thread's limbo until every reader
// section (Thread.Enter/Exit) open at that moment has closed, then is freed
// on the thread's behalf. Synchronize and Retire are one grace-period
// mechanism — the wait taken at once, or deferred — described in epoch.go.
//
// All of this metadata is volatile, as the paper's nv_malloc is assumed
// away: the bump pointer, the free lists and the limbo lists live outside
// the persistent image. After a crash the allocator resumes from the old
// high-water mark, so it can never hand out memory a surviving structure
// references; what it cannot do is remember which blocks below that mark
// were free or in limbo at the crash. That — and nothing else — leaks, the
// same bound a freed value-log extent has always had. There is no
// persistent free list.
package pmem

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// MemModel selects the volatile store-ordering model of the simulated CPU.
type MemModel int

const (
	// TSO is total store ordering (x86): stores are not reordered with
	// other stores, so a crashed cache line holds a program-order prefix
	// of the stores since its last flush.
	TSO MemModel = iota
	// NonTSO allows store-store reordering (ARM): without explicit
	// StoreFence calls a crashed line may hold any subset of unflushed
	// stores.
	NonTSO
)

func (m MemModel) String() string {
	if m == NonTSO {
		return "NonTSO"
	}
	return "TSO"
}

// LineSize is the simulated cache-line size in bytes.
const LineSize = 64

// WordSize is the failure-atomic store granularity in bytes.
const WordSize = 8

// headerWords is the number of words at the start of the arena reserved for
// pool metadata (root pointers). Offset 0 is never a valid allocation, so 0
// doubles as the NULL pointer.
const headerWords = 8

// Config describes a simulated PM device.
type Config struct {
	// Size is the arena capacity in bytes. Rounded up to a whole line.
	Size int64
	// ReadLatency is the emulated PM read stall charged per serial
	// cache-line access (0 = DRAM, no charging).
	ReadLatency time.Duration
	// WriteLatency is the emulated PM write stall charged per cache line
	// flushed (0 = DRAM).
	WriteLatency time.Duration
	// BarrierLatency is the cost of a store fence under NonTSO (the
	// paper's dmb). Ignored under TSO, where FAST needs no fences
	// between stores.
	BarrierLatency time.Duration
	// Model is the store-ordering model.
	Model MemModel
	// TrackCrashes enables the store log behind StartCrashLog and
	// CrashImage. Logging is intended for single-writer crash-injection
	// tests; it serialises stores through a mutex.
	TrackCrashes bool
}

// Errors returned by the allocator.
var (
	ErrOutOfMemory = errors.New("pmem: arena exhausted")
	ErrBadSize     = errors.New("pmem: invalid allocation size")
)

// Pool is a simulated persistent-memory device.
type Pool struct {
	words []uint64
	cfg   Config

	alloc allocator

	logMu sync.Mutex
	log   *crashLog

	// stats aggregates the statistics of released threads.
	statMu sync.Mutex
	stats  Stats

	// Block-state tracking behind SetAllocCheck.
	dbgMu sync.Mutex
	dbg   map[int64]blockInfo

	// Grace-period state (see epoch.go). epochMu guards registration and
	// the orphan limbo; scans read threads without it.
	epochMu  sync.Mutex
	threads  atomic.Pointer[[]*Thread]
	orphans  []retired
	orphaned atomic.Bool

	// epoch is read by every Enter; keep it off the lines the fields
	// above are written on.
	_     [LineSize]byte
	epoch atomic.Uint64
	_     [LineSize - 8]byte
}

// New creates a pool of the configured size. The arena is zeroed, which is
// the persistent image of an empty device; it is mapped outside the Go heap
// and unmapped once the pool is unreachable (arena.go).
func New(cfg Config) *Pool {
	if cfg.Size < headerWords*WordSize {
		cfg.Size = headerWords * WordSize
	}
	lines := (cfg.Size + LineSize - 1) / LineSize
	words, unmap := newArena(lines * WordsPerLine)
	p := newPool(cfg, words, headerWords*WordSize)
	if unmap != nil {
		runtime.AddCleanup(p, func(unmap func()) { unmap() }, unmap)
	}
	return p
}

// newPool builds a pool over words, its one arena, with the bump pointer at
// next. New, Clone and CrashImage all build through it.
func newPool(cfg Config, words []uint64, next int64) *Pool {
	p := &Pool{words: words, cfg: cfg}
	p.alloc.init(next)
	if cfg.TrackCrashes {
		p.log = newCrashLog()
	}
	return p
}

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// Size returns the arena capacity in bytes.
func (p *Pool) Size() int64 { return int64(len(p.words) * WordSize) }

// NewThread returns a fresh per-goroutine context. Threads are not safe for
// concurrent use; create one per goroutine.
func (p *Pool) NewThread() *Thread {
	t := &Thread{p: p}
	t.resetCache()
	return t
}

// Alloc reserves size bytes aligned to align (which must be a power of two,
// at least WordSize). The returned offset is never 0. The memory is zeroed.
//
// Only a block from a free list needs zeroing for that: the arena beyond the
// bump pointer has never been stored to — New zeroes it, and Clone and
// CrashImage seat the bump pointer at the source's high-water mark, beyond
// every block it ever handed out. A recycled block is zeroed with stores
// that bypass the crash log, like the rest of the allocator's work: until the
// caller's own stores to it are flushed, a crash image may show the block's
// previous contents. Callers persist a block before publishing a pointer to
// it, recycled or not.
//
// Allocator metadata is volatile (see the package comment).
func (p *Pool) Alloc(size, align int64) (int64, error) {
	if size <= 0 || align < WordSize || align&(align-1) != 0 {
		return 0, ErrBadSize
	}
	off, recycled, err := p.alloc.take(size, align, p.Size())
	if err != nil {
		return 0, err
	}
	if allocCheck {
		p.checkBlock(off, size, "Alloc", blockLive, blockFree)
	}
	if recycled {
		// Freed blocks hold stale data. Zeroing is part of allocation,
		// not of the crash-ordered store stream (a real allocator hands
		// out zeroed or initialised-by-caller memory).
		for w := off / WordSize; w < (off+size)/WordSize; w++ {
			atomic.StoreUint64(&p.words[w], 0)
		}
	}
	return off, nil
}

// Free returns a block to the allocator at once. The caller must pass the
// same size used at Alloc time, and must know that nobody can still reach
// the block: it has exclusive access, or has waited out the readers with
// Synchronize. Everything else goes through Retire. Double frees are
// detected only under SetAllocCheck.
func (p *Pool) Free(off, size int64) {
	if allocCheck {
		p.checkBlock(off, size, "Free", blockFree, blockLive, blockRetired)
	}
	p.alloc.give(off, size)
}

// FreeBytes reports the bytes the allocator could still hand out: the
// untouched arena past the bump pointer plus every free-listed block. It is
// an upper bound — free-listed blocks only satisfy requests of their own
// size class — so callers admitting work against it must keep their own
// reserve (see the store's value-log admission).
func (p *Pool) FreeBytes() int64 {
	return p.alloc.freeBytes(p.Size())
}

// SetRoot stores a durable root pointer in the reserved pool header.
// slot must be in [0, 8). The store is persisted immediately (flushed).
func (p *Pool) SetRoot(t *Thread, slot int, off int64) {
	if slot < 0 || slot >= headerWords {
		panic(fmt.Sprintf("pmem: root slot %d out of range", slot))
	}
	t.Store(int64(slot*WordSize), uint64(off))
	t.Flush(int64(slot*WordSize), WordSize)
}

// Root loads a durable root pointer from the pool header.
func (p *Pool) Root(t *Thread, slot int) int64 {
	if slot < 0 || slot >= headerWords {
		panic(fmt.Sprintf("pmem: root slot %d out of range", slot))
	}
	return int64(t.Load(int64(slot * WordSize)))
}

// rawLoad reads a word without latency accounting (used by the crash
// simulator and tests).
func (p *Pool) rawLoad(off int64) uint64 {
	return atomic.LoadUint64(&p.words[off/WordSize])
}

// Clone produces an independent copy of the pool image with the same
// configuration (crash tracking disabled on the copy unless retrack is
// true). The allocator of the clone resumes from the source's high-water
// mark so new allocations cannot overlap live data even if allocator state
// was "lost" in a crash. Only the words below that mark are copied: nothing
// above the bump pointer has ever been stored to.
func (p *Pool) Clone(retrack bool) *Pool {
	cfg := p.cfg
	cfg.TrackCrashes = retrack
	hw := p.alloc.highWater()
	words := make([]uint64, len(p.words))
	for i := range words[:hw/WordSize] {
		words[i] = atomic.LoadUint64(&p.words[i])
	}
	return newPool(cfg, words, hw)
}

// addStats merges a released thread's counters into the pool-wide
// aggregate.
func (p *Pool) addStats(s Stats) {
	p.statMu.Lock()
	p.stats.Add(s)
	p.statMu.Unlock()
}

// TotalStats returns the aggregate of all released threads' statistics,
// plus the pool's own count of allocations served from a free list.
func (p *Pool) TotalStats() Stats {
	p.statMu.Lock()
	s := p.stats
	p.statMu.Unlock()
	s.RecycledBlocks = p.alloc.recycledBlocks()
	return s
}

// allocator is a bump allocator with power-of-two size-class free lists.
// It is volatile by design (see Alloc).
type allocator struct {
	mu       sync.Mutex
	base     int64 // where this incarnation started bumping
	next     int64
	free     map[int64][]int64
	recycled uint64 // allocations served from a free list
}

func (a *allocator) init(next int64) {
	a.mu.Lock()
	a.base = next
	a.next = next
	a.free = make(map[int64][]int64)
	a.mu.Unlock()
}

// take returns a block and whether it came off a free list (and so holds
// whatever its last owner left in it) rather than from the untouched arena.
func (a *allocator) take(size, align, limit int64) (off int64, recycled bool, err error) {
	size = roundUp(size, WordSize)
	a.mu.Lock()
	defer a.mu.Unlock()
	if lst := a.free[size]; len(lst) > 0 {
		// Free-listed blocks were allocated with the same size class;
		// they satisfy any alignment the original allocation had. We
		// only reuse when alignment still holds.
		for i := len(lst) - 1; i >= 0; i-- {
			if lst[i]%align == 0 {
				off := lst[i]
				a.free[size] = append(lst[:i], lst[i+1:]...)
				a.recycled++
				return off, true, nil
			}
		}
	}
	off = roundUp(a.next, align)
	if off+size > limit {
		return 0, false, ErrOutOfMemory
	}
	a.next = off + size
	return off, false, nil
}

func (a *allocator) give(off, size int64) {
	size = roundUp(size, WordSize)
	a.mu.Lock()
	a.free[size] = append(a.free[size], off)
	a.mu.Unlock()
}

func (a *allocator) freeBytes(limit int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := limit - a.next
	if b < 0 {
		b = 0
	}
	for size, lst := range a.free {
		b += size * int64(len(lst))
	}
	return b
}

func (a *allocator) recycledBlocks() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recycled
}

func (a *allocator) highWater() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

func roundUp(v, m int64) int64 { return (v + m - 1) / m * m }
