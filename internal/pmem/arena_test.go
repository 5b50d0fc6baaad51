package pmem

import (
	"runtime"
	"testing"
	"time"
)

// TestDroppedArenasAreUnmapped drops pools whose arenas were written and
// checks that the collections New forces, or later ones, unmap every one of
// them: the arenas are outside the Go heap, so nothing else frees them.
func TestDroppedArenasAreUnmapped(t *testing.T) {
	before := arenaMapped.Load()
	for i := range 12 {
		p := New(Config{Size: 16 << 20})
		th := p.NewThread()
		for off := int64(headerWords * WordSize); off < p.Size(); off += 1 << 20 {
			if th.Load(off) != 0 {
				t.Fatalf("pool %d: word at %d not zeroed", i, off)
			}
			th.Store(off, uint64(off))
		}
		if got := th.Load(p.Size() - WordSize); got != 0 {
			t.Fatalf("pool %d: last word = %d, want 0", i, got)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); arenaMapped.Load() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes of dropped arenas still mapped", arenaMapped.Load()-before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
