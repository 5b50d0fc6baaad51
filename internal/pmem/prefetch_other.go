//go:build !amd64

package pmem

import "unsafe"

// prefetchLines is a no-op where no prefetch instruction is wired in.
func prefetchLines(addr unsafe.Pointer, n int) {}
