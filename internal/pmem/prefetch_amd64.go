package pmem

import "unsafe"

// prefetchLines asks the CPU to start filling the n cache lines from addr
// (PREFETCHT0). It is a hint: it cannot fault and loads nothing.
//
//go:noescape
func prefetchLines(addr unsafe.Pointer, n int)
