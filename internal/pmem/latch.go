package pmem

import "runtime"

// Latches are reader/writer spinlocks on one volatile word of a structure
// (a node's lock word): excluded from the crash model, so recovery must
// re-zero them. The word is 0 when free, latchWriter when held exclusively,
// and a multiple of latchReader — one per holder — when held shared.
const (
	latchWriter = uint64(1)
	latchReader = uint64(2)
)

// Latch takes the exclusive latch whose word is at off.
func (t *Thread) Latch(off int64) {
	for spins := 0; ; spins++ {
		if t.LoadVolatile(off) == 0 && t.casVolatile(off, 0, latchWriter) {
			return
		}
		pause(spins)
	}
}

// Unlatch releases the exclusive latch whose word is at off.
func (t *Thread) Unlatch(off int64) {
	t.StoreVolatile(off, 0)
}

// RLatch takes the shared latch whose word is at off.
func (t *Thread) RLatch(off int64) {
	for spins := 0; ; spins++ {
		v := t.LoadVolatile(off)
		if v&latchWriter == 0 && t.casVolatile(off, v, v+latchReader) {
			return
		}
		pause(spins)
	}
}

// RUnlatch releases a shared latch whose word is at off.
func (t *Thread) RUnlatch(off int64) {
	for spins := 0; ; spins++ {
		v := t.LoadVolatile(off)
		if t.casVolatile(off, v, v-latchReader) {
			return
		}
		pause(spins)
	}
}

// Latch backoff tuning. The first pauseActiveSpins iterations busy-wait
// with exponentially growing cost — cheap enough to win when the holder
// releases within its short critical section (FAST's in-node work is a few
// dozen stores) — after which every iteration yields the processor, so
// waiters on an oversubscribed machine stop burning the cycles the latch
// holder needs to finish.
const (
	pauseActiveSpins = 16
	pauseMaxCycles   = 64
)

// pause backs off a latch loop after the spins-th failed acquisition
// attempt: escalating busy-wait first, runtime.Gosched beyond.
func pause(spins int) {
	if spins < pauseActiveSpins {
		n := 2 << uint(spins)
		if n > pauseMaxCycles {
			n = pauseMaxCycles
		}
		spinWait(n)
		return
	}
	runtime.Gosched()
}

// spinWait burns roughly n cycles. It is kept out of line so the compiler
// cannot delete the empty loop at a call site.
//
//go:noinline
func spinWait(n int) {
	for i := 0; i < n; i++ {
	}
}
