//go:build !unix || race

package pmem

// mapArena allocates the arena on the heap where no mapping is wired in,
// and under the race detector, which sees the happens-before of atomic
// operations (the latches' among them) on Go memory only.
func mapArena(n int64) ([]uint64, func()) { return make([]uint64, n), nil }
