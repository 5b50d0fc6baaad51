package pmem

import (
	"math/rand"
	"testing"
)

// TestImageLogCrashAtomic logs a block, rewrites every word of it, flushes
// it and clears the log, then crashes at every point of that history under
// every mode. Opening the log on the image and restoring it must leave the
// block whole: every word as before the save, or every word as after the
// rewrite. Both must occur, and a second Restore finds nothing to do.
func TestImageLogCrashAtomic(t *testing.T) {
	const size, slot = 4 * LineSize, 4
	before := func(w int64) uint64 { return uint64(w + 1) }
	after := func(w int64) uint64 { return uint64(w+1) << 32 }
	for _, model := range []MemModel{TSO, NonTSO} {
		p := New(Config{Size: 1 << 16, TrackCrashes: true, Model: model})
		th := p.NewThread()
		blk, err := p.Alloc(size, LineSize)
		if err != nil {
			t.Fatal(err)
		}
		for w := int64(0); w < size; w += WordSize {
			th.Store(blk+w, before(w))
		}
		th.Flush(blk, size)
		lg, err := OpenImageLog(p, th, slot, size)
		if err != nil {
			t.Fatal(err)
		}
		p.StartCrashLog()
		lg.Save(th, blk)
		for w := int64(0); w < size; w += WordSize {
			th.Store(blk+w, after(w))
		}
		th.Flush(blk, size)
		lg.Clear(th)

		seen := map[string]bool{}
		for cp, img := range p.CrashImages(rand.New(rand.NewSource(1))) {
			ith := img.NewThread()
			ilg, err := OpenImageLog(img, ith, slot, size)
			if err != nil {
				t.Fatal(err)
			}
			if got := ilg.Restore(ith); got != 0 && got != blk {
				t.Fatalf("%v %v: Restore rewrote block %d, want %d", model, cp, got, blk)
			}
			if got := ilg.Restore(ith); got != 0 {
				t.Fatalf("%v %v: second Restore rewrote block %d", model, cp, got)
			}
			var whole string
			for _, c := range []struct {
				name string
				val  func(int64) uint64
			}{{"before", before}, {"after", after}} {
				match := true
				for w := int64(0); w < size && match; w += WordSize {
					match = ith.Load(blk+w) == c.val(w)
				}
				if match {
					whole = c.name
				}
			}
			if whole == "" {
				t.Fatalf("%v %v: block is a mix of its two images after Restore", model, cp)
			}
			seen[whole] = true
		}
		if !seen["before"] || !seen["after"] {
			t.Fatalf("%v: crash images left the block only %v", model, seen)
		}
	}
}
