package pmem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Grace-period reclamation (epoch-based, after Fraser): the one mechanism
// by which a block that lock-free readers may still be dereferencing gets
// back to the allocator.
//
// A reader brackets every window in which it holds an arena offset it read
// out of a shared structure with Thread.Enter/Exit — a SECTION. A writer
// that has made a block unreachable (and persisted that) hands it to
// Pool.Retire instead of Pool.Free; the block joins the retiring thread's
// limbo list and reaches the free list only once every section that was
// open at the Retire has closed. Pool.Synchronize is the same wait as a
// blocking call, for reclaimers that free in bulk (value-log GC).
//
// The pool keeps one global epoch. Enter announces the epoch it observed in
// the thread's own padded slot, Exit clears the slot: two stores to a line
// no other thread writes, and a read of the epoch line, which changes once
// per retireBatch retires. The epoch may advance from g to g+1 only when
// every announced slot shows g, so a section that announced e pins the
// epoch at e+1 or below for as long as it stays open. A block retired at
// epoch r is freed at r+2: by then every section that could have seen it
// linked — necessarily announced at r or earlier — has closed. A thread
// that loaded the epoch long before it announced it is covered too: a scan
// either saw its announcement (and refused to advance past it) or ran
// before it, in which case every load the section makes comes after the
// scan and therefore after the unlink of anything that scan let go.
// Registration precedes the first announcement for the same reason: an
// unregistered thread is indistinguishable from one outside a section.
//
// Limbo lists, like the free lists they drain into, are volatile: a crash
// forgets them, leaking at most the blocks that were free or in limbo at
// that instant. Nothing a crash image can reach is ever in either.

// retireBatch is the number of Retire calls a thread makes between attempts
// to advance the epoch and drain its limbo. One attempt reads every
// registered thread's slot, so the batch amortises that scan; a lone
// thread's limbo settles at two to three batches.
const retireBatch = 64

// retired is a limbo entry: a block and the epoch observed after it became
// unreachable.
type retired struct {
	off, size int64
	epoch     uint64
}

// epochSlot is a thread's announcement word, alone on its cache lines so
// Enter/Exit never contend with another thread's stores: 0 outside a
// section, epoch<<1|1 inside one.
type epochSlot struct {
	_ [LineSize]byte
	v atomic.Uint64
	_ [LineSize - 8]byte
}

// Enter opens a section: until the matching Exit, no block retired from now
// on — nor any retired earlier that this thread can still reach — is handed
// out again by Alloc. Sections nest; only the outermost pair touches the
// slot. A thread inside a section must not call Pool.Synchronize.
func (t *Thread) Enter() {
	t.depth++
	if t.depth == 1 {
		t.announce()
	}
}

// Exit closes the section opened by the matching Enter.
func (t *Thread) Exit() {
	t.depth--
	if t.depth == 0 {
		t.slot.v.Store(0)
	}
}

func (t *Thread) announce() {
	if !t.registered {
		t.p.register(t)
	}
	t.slot.v.Store(t.p.epoch.Load()<<1 | 1)
}

func (p *Pool) register(t *Thread) {
	p.epochMu.Lock()
	var ths []*Thread
	if cur := p.threads.Load(); cur != nil {
		ths = append(ths, *cur...)
	}
	ths = append(ths, t)
	p.threads.Store(&ths)
	p.epochMu.Unlock()
	t.registered = true
}

// unregister removes t from the scan set and parks what is left of its
// limbo with the pool, to be drained by whichever thread reclaims next.
func (p *Pool) unregister(t *Thread) {
	if t.depth != 0 {
		panic("pmem: Thread.Release inside an Enter/Exit section")
	}
	if !t.registered && len(t.limbo) == 0 {
		return
	}
	p.epochMu.Lock()
	if t.registered {
		cur := *p.threads.Load()
		ths := make([]*Thread, 0, len(cur))
		for _, o := range cur {
			if o != t {
				ths = append(ths, o)
			}
		}
		p.threads.Store(&ths)
		t.registered = false
	}
	if len(t.limbo) > 0 {
		p.orphans = append(p.orphans, t.limbo...)
		p.orphaned.Store(true)
		t.limbo = t.limbo[:0]
	}
	p.epochMu.Unlock()
}

// Retire hands back a block that t has just made unreachable — unlinked,
// and the unlink persisted — while readers that found it earlier may still
// be inside a section. size must be the size it was allocated with. The
// block returns to its free list, through Free, once every section open now
// has closed; t itself may be inside one.
func (p *Pool) Retire(t *Thread, off, size int64) {
	if allocCheck {
		p.checkBlock(off, size, "Retire", blockRetired, blockLive)
	}
	t.Stats.RetiredBlocks++
	t.limbo = append(t.limbo, retired{off, size, p.epoch.Load()})
	if t.sinceReclaim++; t.sinceReclaim >= retireBatch {
		p.reclaim(t)
	}
}

// reclaim makes one attempt to advance the epoch, then frees every block of
// t's limbo (and of released threads' leftovers) that is two epochs old.
func (p *Pool) reclaim(t *Thread) {
	t.sinceReclaim = 0
	g := p.tryAdvance()
	n := 0
	for n < len(t.limbo) && t.limbo[n].epoch+2 <= g {
		p.Free(t.limbo[n].off, t.limbo[n].size)
		n++
	}
	t.limbo = t.limbo[:copy(t.limbo, t.limbo[n:])]
	if p.orphaned.Load() {
		p.epochMu.Lock()
		keep := p.orphans[:0]
		for _, r := range p.orphans {
			if r.epoch+2 <= g {
				p.Free(r.off, r.size)
			} else {
				keep = append(keep, r)
			}
		}
		p.orphans = keep
		p.orphaned.Store(len(keep) > 0)
		p.epochMu.Unlock()
	}
}

// tryAdvance moves the epoch forward by one if every open section has
// announced the current one, and returns the epoch either way.
func (p *Pool) tryAdvance() uint64 {
	g := p.epoch.Load()
	if ths := p.threads.Load(); ths != nil {
		for _, t := range *ths {
			if v := t.slot.v.Load(); v != 0 && v>>1 != g {
				return g
			}
		}
	}
	if p.epoch.CompareAndSwap(g, g+1) {
		return g + 1
	}
	return p.epoch.Load()
}

// Synchronize returns once every section that was open when it was called
// has closed; sections opened meanwhile are not waited for. The caller must
// be outside any section (it would wait for itself). What the caller
// unlinked before the call is unreachable to every reader after it.
func (p *Pool) Synchronize() {
	// Two advances: the first needs every open section to show the
	// current epoch, the second needs those to have closed.
	g := p.epoch.Load()
	target := g + 2
	for spins := 0; g < target; {
		if now := p.tryAdvance(); now != g {
			g = now
			continue
		}
		if spins++; spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// --- allocator checking ------------------------------------------------------

// allocCheck switches on exact block-state tracking in every pool: see
// SetAllocCheck.
var allocCheck bool

// SetAllocCheck makes every pool created afterwards track the state of each
// block by offset and panic on allocator misuse: Alloc returning a block
// that is live or in limbo, Free of a block that is free or was never
// allocated, Retire of anything but a live block (a double retire hands one
// cell to two owners), or a size that differs from the allocation's. It
// costs a map operation under a mutex per call, so it is for tests: call it
// from TestMain, before any pool exists.
func SetAllocCheck(on bool) { allocCheck = on }

type blockState uint8

const (
	blockFree blockState = iota
	blockLive
	blockRetired
)

func (s blockState) String() string {
	return [...]string{"free", "live", "retired"}[s]
}

type blockInfo struct {
	size  int64
	state blockState
}

// checkBlock moves the block at off from one of the states in `from` to
// `to`, panicking when it is in neither. Blocks below the allocator's
// starting mark were allocated by an earlier incarnation of the image
// (Clone, CrashImage): unseen, they count as live, with unknown size.
func (p *Pool) checkBlock(off, size int64, op string, to blockState, from ...blockState) {
	size = roundUp(size, WordSize)
	p.dbgMu.Lock()
	defer p.dbgMu.Unlock()
	if p.dbg == nil {
		p.dbg = make(map[int64]blockInfo)
	}
	cur, seen := p.dbg[off]
	if !seen && off < p.alloc.base {
		cur = blockInfo{size: size, state: blockLive}
	}
	ok := false
	for _, s := range from {
		ok = ok || cur.state == s
	}
	if !ok {
		panic(fmt.Sprintf("pmem: %s of %s block [%d,%d)", op, cur.state, off, off+size))
	}
	if cur.state != blockFree && cur.size != size {
		panic(fmt.Sprintf("pmem: %s of block %d with size %d, allocated with %d", op, off, size, cur.size))
	}
	p.dbg[off] = blockInfo{size: size, state: to}
}
