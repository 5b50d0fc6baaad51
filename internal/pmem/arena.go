package pmem

import (
	"runtime"
	"sync/atomic"
)

// A pool's arena lives outside the Go heap where the platform allows and
// the race detector is off (mapArena), for two reasons. On the heap, a
// gigabyte of pointer-free arenas would set the collector's goal a
// gigabyte away, so a process's garbage would pile up for as long as its
// heap stays flat; and an arena
// placed over pages the collector has just freed is zeroed by the runtime,
// all of it resident at once, depending on when a background collection
// finished. A mapped arena is zero-filled by the kernel page by page as it
// is first touched.
//
// The collector does not see a mapped arena, so New asks for a collection
// itself when the arenas mapped have outgrown twice those still mapped at
// its last request: a dropped pool is unmapped by its cleanup after the
// collection that finds it unreachable.

// arenaSlack is the bytes of mapped arenas within which New asks for no
// collection.
const arenaSlack = 64 << 20

var (
	arenaMapped atomic.Int64 // bytes mapped by mapArena and not yet unmapped
	arenaKept   atomic.Int64 // arenaMapped as New's last collection left it
)

// newArena returns a zeroed arena of n words and the call that unmaps it,
// nil for an arena on the heap.
func newArena(n int64) ([]uint64, func()) {
	if m := arenaMapped.Load(); m > 0 && m+n*WordSize > max(2*arenaKept.Load(), arenaSlack) {
		runtime.GC()
		arenaKept.Store(arenaMapped.Load())
	}
	return mapArena(n)
}
