//go:build unix && !race

package pmem

import (
	"syscall"
	"unsafe"
)

// mapArena maps n zeroed words outside the Go heap and returns them with
// the call that unmaps them. A failed mapping falls back to the heap.
func mapArena(n int64) ([]uint64, func()) {
	size := n * WordSize
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint64, n), nil
	}
	arenaMapped.Add(size)
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n), func() {
		if syscall.Munmap(b) == nil {
			arenaMapped.Add(-size)
		}
	}
}
