package pmem

// ImageLog is a one-entry redo log of a block image: the legacy way to make
// a multi-line rewrite of one block (a node split) crash-atomic, used by the
// FAST+Logging and wB+-tree baselines. Save copies the block into the log
// and commits it, the caller rewrites the block in place and flushes it,
// and Clear retires the log; after a crash, Restore puts the committed image
// back. A logged rewrite flushes size/64 + 3 lines and fences three times
// more than the rewrite alone: the overhead the paper measures against FAIR.
//
// Log layout:
//
//	word 0  commit flag (1 = image valid)
//	word 1  target block offset
//	+16     size-byte block image
type ImageLog struct {
	off  int64
	size int64
}

// OpenImageLog returns the image log for size-byte blocks anchored at root
// slot, allocating and persisting its area on first use.
func OpenImageLog(p *Pool, th *Thread, slot int, size int64) (ImageLog, error) {
	off := p.Root(th, slot)
	if off == 0 {
		var err error
		off, err = p.Alloc(16+size, LineSize)
		if err != nil {
			return ImageLog{}, err
		}
		th.Flush(off, 16+size)
		p.SetRoot(th, slot, off)
	}
	return ImageLog{off: off, size: size}, nil
}

// Save logs the image of the block at target and commits it.
func (l ImageLog) Save(th *Thread, target int64) {
	th.Store(l.off+8, uint64(target))
	for w := int64(0); w < l.size; w += WordSize {
		th.Store(l.off+16+w, th.Load(target+w))
	}
	th.Flush(l.off+8, 8+l.size)
	th.Store(l.off, 1)
	th.Flush(l.off, 8)
}

// Clear retires the committed image.
func (l ImageLog) Clear(th *Thread) {
	th.Store(l.off, 0)
	th.Flush(l.off, 8)
}

// Restore copies a committed image back over its block, persists it and
// clears the log, returning the block's offset; with no committed image it
// changes nothing and returns 0.
func (l ImageLog) Restore(th *Thread) int64 {
	if th.Load(l.off) != 1 {
		return 0
	}
	target := int64(th.Load(l.off + 8))
	for w := int64(0); w < l.size; w += WordSize {
		th.Store(target+w, th.Load(l.off+16+w))
	}
	th.Flush(target, l.size)
	l.Clear(th)
	return target
}
