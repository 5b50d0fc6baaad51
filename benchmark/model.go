package main

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
)

// The reference model. A workload's data is one or more keyspaces, each a
// universe of n key indexes. Worker w owns the indexes congruent to w modulo
// numWorkers and is the only writer of those keys, so it can keep their
// state without synchronisation: one version word per owned key, odd = live
// with the value derived from (key, version), even = absent. Every value the
// store hands back is checked against that derivation, and a value read from
// the other worker's key (scans cross the ownership line) must at least be a
// value that worker could have written.

// numWorkers is the number of load-generating goroutines (and connections on
// the net_* workloads). The sandbox has two cores; more workers than cores
// would measure the scheduler.
const numWorkers = 2

type family uint8

const (
	famU64   family = iota // u64 key -> u64 value (Put/Get/Delete)
	famBytes               // u64 key -> byte-string value (PutBytes/GetBytes)
	famKV                  // 24-byte key -> byte-string value (PutKV/GetKV)
)

// keyspace describes one family's key universe inside a store. Tree keys
// (u64 keys, or the 8-byte prefixes of byte keys) occupy [base, base+n), so
// keyspaces of one store stay disjoint by choosing bases far apart.
type keyspace struct {
	fam            family
	base           uint64
	n              int  // universe size, a multiple of 8
	minLen, maxLen int  // value length range; a key's length never changes
	halfLive       bool // initial state: half of each worker's keys are live
	shared         bool // famKV: 1 key in 8 sits in a 4-key shared-prefix bucket
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (k *keyspace) key(idx uint32) uint64 { return k.base + uint64(idx) }

// prefixIdx maps a byte key's index to the index its 8-byte prefix encodes.
// Every eighth group of four consecutive indexes shares the group's first
// index as prefix; consecutive indexes alternate between the workers, so a
// shared bucket's keys are split between them.
func (k *keyspace) prefixIdx(idx uint32) uint32 {
	if k.inSharedBucket(idx) {
		return idx &^ 3
	}
	return idx
}

func (k *keyspace) inSharedBucket(idx uint32) bool { return k.shared && (idx/4)%8 == 0 }

const kvKeyLen = 24

// kvKey writes the 24-byte key of idx: prefix, index, padding. Byte order
// equals index order, which is what scan verification relies on.
func (k *keyspace) kvKey(dst *[kvKeyLen]byte, idx uint32) []byte {
	binary.BigEndian.PutUint64(dst[0:], k.base+uint64(k.prefixIdx(idx)))
	binary.BigEndian.PutUint64(dst[8:], uint64(idx))
	copy(dst[16:], "pmkvbnch")
	return dst[:]
}

func (k *keyspace) valLen(idx uint32) int {
	if k.maxLen == k.minLen {
		return k.minLen
	}
	return k.minLen + int(mix(uint64(idx)^0x9e3779b9)%uint64(k.maxLen-k.minLen+1))
}

// userBytes is the key+value size of one live pair, the denominator of
// space_amp.
func (k *keyspace) userBytes(idx uint32) int64 {
	switch k.fam {
	case famU64:
		return 16
	case famBytes:
		return 8 + int64(k.valLen(idx))
	default:
		return kvKeyLen + int64(k.valLen(idx))
	}
}

func (k *keyspace) live0(idx uint32) bool { return !k.halfLive || (idx>>1)&1 == 0 }

// Versions only grow, and every put and delete takes a fresh one, so the
// durability guard can tell an operation's old state from its new state.
func nextPut(v uint32) uint32    { return (v + 2) | 1 }
func nextDelete(v uint32) uint32 { return (v + 1) &^ 1 }
func isLive(v uint32) bool       { return v&1 == 1 }

// u64val is the fixed-width value of (key, version): the version in the top
// half so a reader can recover it, a hash of both in the bottom half so a
// value written under another key or version cannot pass.
func u64val(key uint64, v uint32) uint64 {
	return uint64(v)<<32 | uint64(uint32(mix(key^uint64(v)<<40)))
}

// checkU64 reports whether got is the value of key at version want, or at
// any live version when want is 0.
func checkU64(got, key uint64, want uint32) bool {
	v := uint32(got >> 32)
	if want != 0 && v != want {
		return false
	}
	return isLive(v) && got == u64val(key, v)
}

// fillValue builds the n-byte value of (key, version) into dst[:0]: the u64
// value first, then a stream seeded by it.
func fillValue(dst []byte, key uint64, v uint32, n int) []byte {
	if cap(dst) < n+8 {
		dst = make([]byte, 0, n+8)
	}
	dst = dst[:(n+7)&^7]
	x := u64val(key, v)
	for i := 0; i < len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], x)
		x = x*6364136223846793005 + 1442695040888963407
	}
	return dst[:n]
}

// checkValue is checkU64 for byte-string values; scratch is reused to
// regenerate the expected bytes.
func checkValue(got []byte, key uint64, want uint32, n int, scratch *[]byte) bool {
	if len(got) != n || n < 8 {
		return false
	}
	v := uint32(binary.LittleEndian.Uint64(got) >> 32)
	if !isLive(v) || (want != 0 && v != want) {
		return false
	}
	*scratch = fillValue(*scratch, key, v, n)
	return bytes.Equal(got, *scratch)
}

// Operation kinds. The names double as the op label of trace spans and as
// the stem of the store.* per-layer metric names.
const (
	opGet uint8 = iota
	opPut
	opDelete
	opGetBytes
	opPutBytes
	opGetKV
	opPutKV
	opDeleteKV
	opScan
	opScanBytes
	opScanKV
	opCommit
	numKinds
)

var kindNames = [numKinds]string{
	"get", "put", "delete", "getbytes", "putbytes", "getkv", "putkv",
	"deletekv", "scan", "scanbytes", "scankv", "commit",
}

func isWrite(kind uint8) bool {
	switch kind {
	case opPut, opDelete, opPutBytes, opPutKV, opDeleteKV, opCommit:
		return true
	}
	return false
}

func classOf(kind uint8) int {
	if isWrite(kind) {
		return classWrite
	}
	return classRead
}

const (
	scanPairs = 16 // pairs one scan asks for
	txnReads  = 2  // Txn.Get calls per transaction
	txnWrites = 4  // Txn.Put calls per transaction
)

// op is one generated operation with its expectation. For reads ver is the
// version the model holds (the expected result); for writes it is the
// version being written and was tells whether the key was live before. A
// scan's idx is its start index. A transaction uses the r*/w* arrays.
type op struct {
	kind uint8
	ks   uint8
	was  bool
	idx  uint32
	ver  uint32
	ridx [txnReads]uint32
	rver [txnReads]uint32
	widx [txnWrites]uint32
	wver [txnWrites]uint32
}

// worker is one load generator's private state: its random stream, the
// versions of the keys it owns, and what it measured.
type worker struct {
	id  int
	rng *rand.Rand
	ver [][]uint32 // per keyspace, indexed by idx / numWorkers

	n          uint64 // operations generated so far (also the span id)
	last       int64  // completion time of the last clocked operation
	failed     int64  // errors and refusals
	mismatched int64  // results the model rejects
	transient  int64  // point reads the model rejected once and accepted when repeated
	complaints int
	quiet      bool

	// Per-round measurements, reset by beginRound.
	ops       int64
	writes    int64
	userBytes int64 // key+value bytes handed to Put* calls
	elapsed   int64
	lat       [2][]int32 // clocked latencies in ns: [0] reads, [1] writes
	issue     []int32    // net_*: ns inside the *Async call
	windowSum int64      // net_*: in-flight calls summed at every issue

	spans []span // non-nil only in the traced round and the replays
}

const (
	classRead  = 0
	classWrite = 1
	maxSamples = 1 << 20
)

func newWorker(id int, seed uint64, wl *workload) *worker {
	ks := wl.ks
	w := &worker{id: id, rng: rand.New(rand.NewPCG(seed, mix(uint64(wl.id)<<8|uint64(id))))}
	for i := range ks {
		k := &ks[i]
		vs := make([]uint32, k.n/numWorkers)
		for j := range vs {
			if k.live0(uint32(j*numWorkers + id)) {
				vs[j] = 1
			}
		}
		w.ver = append(w.ver, vs)
	}
	for c := range w.lat {
		w.lat[c] = make([]int32, 0, maxSamples)
	}
	return w
}

func (w *worker) beginRound() {
	w.ops, w.writes, w.userBytes, w.windowSum = 0, 0, 0, 0
	w.lat[0], w.lat[1], w.issue = w.lat[0][:0], w.lat[1][:0], w.issue[:0]
}

// own draws one of the worker's key indexes uniformly.
func (w *worker) own(k *keyspace) uint32 {
	return uint32(w.rng.IntN(k.n/numWorkers)*numWorkers + w.id)
}

// ownWhere draws an owned index whose liveness is want, giving up after a
// few tries (the universes are half live, so two draws are the average).
func (w *worker) ownWhere(ks int, k *keyspace, want bool) uint32 {
	idx := w.own(k)
	for try := 0; try < 16 && isLive(w.ver[ks][idx/numWorkers]) != want; try++ {
		idx = w.own(k)
	}
	return idx
}

// observe records one clocked call. Latencies above 2 s saturate.
func (w *worker) observe(kind uint8, layer uint8, t0, t1 int64) {
	w.last = t1
	d := t1 - t0
	if d > 1<<31-1 {
		d = 1<<31 - 1
	}
	c := classOf(kind)
	if len(w.lat[c]) < maxSamples {
		w.lat[c] = append(w.lat[c], int32(d))
	}
	if w.spans != nil && len(w.spans) < cap(w.spans) {
		w.spans = append(w.spans, span{worker: uint8(w.id), layer: layer, kind: kind, id: uint32(w.n), start: t0, dur: int32(d)})
	}
}

// liveBytes sums the key+value bytes of the worker's live keys.
func (w *worker) liveBytes(ks []keyspace) int64 {
	var b int64
	for i := range ks {
		for j, v := range w.ver[i] {
			if isLive(v) {
				b += ks[i].userBytes(uint32(j*numWorkers + w.id))
			}
		}
	}
	return b
}
