// Package store layers a sharded, concurrent key-value store over the
// FAST+FAIR B+-tree. Keys are hash-partitioned across N independent shards,
// each one FAST+FAIR tree (internal/core) in its own pmem.Pool, so writers
// contend only within a shard and each shard keeps its own allocator, latency
// state and crash log — the standard multi-core scaling route for persistent
// trees (FP-tree's and Circ-Tree's partitioned deployments take the same
// shape). Every write is one of the tree's latched failure-atomic 8-byte
// stores (Exchange, ReplaceIf, Remove), called on the tree itself.
//
// Callers never handle *pmem.Thread directly: a Session owns one thread per
// shard for its goroutine (see NewSession). Cross-shard reads are merged on
// the fly, so Scan streams the global key order even though shards are
// hash-partitioned.
//
// Durability matches the paper's contract per shard: every completed Put is
// persistent without logging, an in-flight Put is atomic under any crash,
// and Reopen runs FAST+FAIR recovery on every shard to repair transient
// inconsistency eagerly.
package store

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/txnlog"
	"repro/internal/vlog"
)

// ErrClosed reports an operation on a closed Store. Sessions outliving their
// store fail every operation with it instead of touching released shard
// state — the contract the network server's graceful shutdown leans on.
var ErrClosed = errors.New("store: closed")

// Options configures a Store. The zero value gives 4 FAST+FAIR shards of
// 256 MiB each at DRAM latency.
type Options struct {
	// Shards is the number of hash partitions (and pools). Default 4.
	Shards int
	// ShardSize is the arena capacity per shard in bytes. Default 256 MiB.
	ShardSize int64
	// Mem carries the latency/model configuration applied to every shard
	// pool. Mem.Size is ignored; ShardSize wins.
	Mem pmem.Config
	// Latency tunes the simulated PM latencies with plain fields, so
	// callers outside this module can shape the device without naming
	// internal/pmem types. Non-zero fields override the same knobs in Mem.
	Latency LatencyOptions
	// ValueLogExtent is the growth unit of each shard's value log in
	// bytes (the persistent log behind PutBytes/GetBytes). 0 picks a
	// default scaled to ShardSize; oversized values allocate one-off
	// larger extents regardless.
	ValueLogExtent int64
	// GCGarbageRatio triggers automatic value-log compaction: when a
	// varlen overwrite or delete pushes a shard's garbage fraction
	// (garbage / (live+garbage) payload bytes) to or above this ratio —
	// and at least one extent's worth of garbage has accumulated — the
	// writing session runs a GC pass on that shard before returning.
	// 0 selects the default of 0.5; a negative value disables automatic
	// GC entirely (Session.CompactValues still compacts on demand).
	GCGarbageRatio float64
	// TxnLogCap is the fixed capacity in bytes of a shard's transaction
	// redo log, and with it the size limit of a transaction: a commit
	// writes its WHOLE encoded write-set — every shard's ops — as one
	// record into the first free log from its home shard (the
	// lowest-numbered shard it touches) up, so that record (24 bytes of
	// header; 17 per fixed-width put, 9 per delete, 7 or 3 plus the key
	// and value bytes per byte-key put or delete) must fit TxnLogCap.
	// Larger transactions fail with ErrTxnTooLarge before writing
	// anything. An operator knob: raise it to admit bigger transactions,
	// at TxnLogCap bytes of pool per shard whose log a commit ever used;
	// lower it on small pools. 0 picks a default scaled to ShardSize
	// (ShardSize/16 clamped to 64 KiB..4 MiB; 4 MiB holds any transaction
	// that fits one 1 MiB wire frame). The log is allocated by the first
	// commit to use it (ErrNoSpace if the pool cannot hold it then): a
	// store that never commits spends nothing on it, and a lone committer
	// only ever uses its home shard's. The capacity is fixed when the log
	// is created: a store reopened with another TxnLogCap keeps its
	// existing logs' size.
	TxnLogCap int64

	// recoverStep, when non-nil, is invoked by Reopen's transaction
	// recovery after each shard replay and each log truncation — the
	// recovery analogue of the commitStep hook, settable only from
	// within the package (crash-matrix tests); nil in production.
	recoverStep func()
}

// LatencyOptions is the external-facing slice of pmem.Config: the emulated
// device latencies. The zero value leaves the Mem configuration untouched
// (DRAM speed by default).
type LatencyOptions struct {
	// Read is the PM read stall charged per serial cache-line access.
	Read time.Duration
	// Write is the PM write stall charged per cache line flushed.
	Write time.Duration
	// Barrier is the store-fence cost on non-TSO memory models.
	Barrier time.Duration
}

func (o *Options) fill() error {
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.Shards < 1 || o.Shards >= maxShards {
		return fmt.Errorf("store: Shards %d out of range [1,%d)", o.Shards, maxShards)
	}
	if o.ShardSize == 0 {
		o.ShardSize = 256 << 20
	}
	if o.Latency.Read != 0 {
		o.Mem.ReadLatency = o.Latency.Read
	}
	if o.Latency.Write != 0 {
		o.Mem.WriteLatency = o.Latency.Write
	}
	if o.Latency.Barrier != 0 {
		o.Mem.BarrierLatency = o.Latency.Barrier
	}
	if o.GCGarbageRatio == 0 {
		o.GCGarbageRatio = 0.5
	}
	if o.ValueLogExtent == 0 {
		// Scale the growth unit to the shard: 1/64 of the arena keeps
		// tiny test shards from burning their space on one extent while
		// production-sized shards grow in MiB steps.
		o.ValueLogExtent = o.ShardSize / 64
		if o.ValueLogExtent > vlog.DefaultExtent {
			o.ValueLogExtent = vlog.DefaultExtent
		}
		if o.ValueLogExtent < 4096 {
			o.ValueLogExtent = 4096
		}
	}
	if o.TxnLogCap == 0 {
		// 1/16 of the shard, clamped: big enough that a transaction can
		// carry a near-maximal byte-string value, small enough that tiny
		// test shards keep their arena.
		o.TxnLogCap = o.ShardSize / 16
		if o.TxnLogCap > 4<<20 {
			o.TxnLogCap = 4 << 20
		}
		if o.TxnLogCap < 64<<10 {
			o.TxnLogCap = 64 << 10
		}
	}
	return nil
}

// maxShards bounds the stamp encoding (16 bits) far above any sane count.
const maxShards = 1 << 16

// The pool root slots holding shard metadata; the tree anchors at slot 0.
// stampSlot identifies the shard (magic, shard count, shard id); shapeSlot
// holds shapeWord, the shard tree's format, so Reopen refuses to misread an
// image built some other way; vlogSlot anchors the shard's value log
// (varlen values); txnSlot anchors the shard's transaction redo log (Txn
// commits).
const (
	stampSlot = 3
	shapeSlot = 2
	vlogSlot  = 5
	txnSlot   = 6
)

// stampMagic brands a pool as a store shard ("FF+S" in the top word).
const stampMagic = uint64(0x46462b53)

func stamp(shardID, shards int) int64 {
	return int64(stampMagic<<32 | uint64(shards)<<16 | uint64(shardID))
}

// shapeWord is the one shard shape: a FAST+FAIR tree at core's default
// node size. It is the root word 0xabb2529a<<32 (the FNV-1a hash of
// "FAST+FAIR" over a zero node size) that every shard image has carried
// since the shape slot exists, so those images reopen; a shard built with
// another index kind or node size carries another word and is refused.
const shapeWord = -0x544dad66 << 32 // 0xabb2529a<<32 as an int64 root word

// Store is a sharded KV store. All operations go through Sessions; the Store
// itself only manages shard lifecycle.
type Store struct {
	opts   Options
	shards []shard
	met    *storeMetrics

	// closed+inflight form the close gate: every Session operation holds
	// an inflight reference for its duration, and Close flips closed
	// before waiting the count down to zero, so no operation can observe
	// shard state released by Close (see Session.acquire).
	closed   atomic.Bool
	inflight atomic.Int64

	// txnSeq issues transaction IDs. Volatile: every shard's redo log is
	// truncated during Reopen, so restarting from zero cannot collide
	// with a logged ID.
	txnSeq atomic.Uint64

	// txnFailed latches the store read-only after a Commit fails past
	// its commit point (ErrTxnIncomplete): the committed transaction's
	// redo records are still in a shard log, and any further commit's
	// cleanup would truncate them while any further plain write could be
	// silently superseded when Reopen replays them. While set, every
	// mutation fails with ErrReopenRequired; reads proceed.
	txnFailed atomic.Bool

	// commitStep, when non-nil, is invoked by Txn.Commit after every
	// persist-generating step of the commit protocol (the commit
	// record's append, each shard's apply, the truncation) and by
	// recoverTxns after each replay and truncation. Test hook for
	// consistent-cut crash matrices; nil in production.
	commitStep func()

	// applyFault, when non-nil, is consulted by Txn.Commit before each
	// shard's apply phase; a non-nil return is treated as that shard's
	// apply failing after the commit point. Test hook for the
	// ErrTxnIncomplete latch; nil in production.
	applyFault func(shard int) error
}

type shard struct {
	pool *pmem.Pool
	ix   *core.BTree
	vl   *vlog.Log
	gc   *shardGC
}

// shardGC is a shard's volatile write and commit coordination state. It
// lives behind a pointer so shard values stay copyable. Readers take none of
// these: what keeps a log record (or a value box) alive under a reader is a
// grace section on its own shard thread, see gc.go.
type shardGC struct {
	// stripes are the shard's key locks; a tree key (a u64 key, or a byte
	// key's PackPrefix) maps to stripes[stripeOf(key)]. They fence
	// transaction commits against plain writers and against each other,
	// per key rather than per shard:
	//   - Every plain write holds its key's stripe for its apply, taken in
	//     one place, Session.applyShared: shared for u64 and varlen
	//     writes, exclusively for PutKV/DeleteKV, whose bucket rewrite is a
	//     read-modify-write of one log record (the tree's Exchange cannot
	//     express insert-if-absent, so two concurrent upserts into one
	//     bucket could both install and silently drop an entry).
	//   - Txn.Commit holds every stripe its ops name exclusively, from
	//     before its commit record's append until after the record's
	//     truncation, and all of a shard's stripes when it appends to that
	//     shard's value log (byte-key ops), so no concurrent writer spends
	//     the space its pre-flight admitted.
	// Without the commit's hold, a plain write landing between a committed
	// transaction's tree apply and its truncation would be reverted if a
	// crash forced recovery to replay the still-logged record; between
	// commits, it is what keeps at most one un-truncated record naming any
	// key, so replay order across logs cannot matter. Commits lock in
	// ascending (shard, stripe) order (deadlock-free); plain writers hold
	// one stripe at a time, and every site takes one through
	// stripe.acquire, which yields to a holder for up to stripeWait before
	// it parks. Reads and GC never take them — relocation preserves bucket
	// content, and a bucket rewrite's ReplaceIf install detects and retries
	// around a concurrent swap. Lock order: stripes, then tlMu, then the
	// value log's gcMu (a commit's space admission may compact;
	// vlog.Log.GC serialises passes itself).
	stripes [keyStripes]stripe
	// tlMu owns tl: a commit writes its record into whichever shard's log
	// it holds, trying the logs from its lowest participating shard up
	// (see Store.takeRedoLog), so at most one record ever occupies a log —
	// which is what makes truncate-to-empty the correct cleanup.
	tlMu sync.Mutex
	// tl is the shard's transaction redo log: nil until a commit holding
	// tlMu creates it (Store.redoLog) or Reopen finds one in the image.
	// Read and written with tlMu held, or with the store to oneself
	// (Reopen). It lives here, not in shard, because shard values are
	// copied freely and must not change after Open.
	tl *txnlog.Log
	// records says that the shard's tree may name a value-log record. It
	// is clear at Open; Reopen sets it when its accounting recount finds a
	// tree word that names one. It is set, and never cleared, before the
	// shard's first value-log append, always while every stripe of the
	// shard is held exclusively or by the only mutator (see
	// Session.noteRecords, Session.applyOps), and read by a u64 write
	// under its key's stripe (Session.apply). A writer that sees it clear
	// therefore knows that the word it displaces names no record, and
	// neither reads nor retires it.
	records atomic.Bool
}

// keyStripes is the number of key-lock stripes per shard. At most 64, so a
// commit's stripes on one shard fit one mask word (txnPlan.stripes).
const (
	stripeBits = 6
	keyStripes = 1 << stripeBits
)

// stripe is one key lock, padded to a cache line's size so that
// neighbouring stripes taken by different cores keep their lock words apart.
type stripe struct {
	sync.RWMutex
	_ [64 - unsafe.Sizeof(sync.RWMutex{})]byte
}

// stripeWait is how long a writer that finds its stripe taken yields to
// the holder before it parks in the runtime's lock queue. On embed_txn
// (two committers, 300 ns PM, 2 cores) a commit holds its stripes for
// 9.5 µs at the median and 15 µs at the 99th percentile, while a parked
// waiter resumes 70 µs at the median (240 µs at the 99th) after the
// holder's release: a window of twice the slow hold lets nearly every
// waiter take the stripe within the hold, and parks only waiters behind a
// holder that is itself stalled, whom yielding would not help.
const stripeWait = 30 * time.Microsecond

// acquire takes the stripe, exclusively if excl, and is the only way a
// stripe is taken (Session.applyShared, Txn.commitLocked). A first try
// that succeeds costs one atomic and records nothing; one that fails waits.
func (st *stripe) acquire(excl bool, m *storeMetrics) {
	if !st.try(excl) {
		st.wait(excl, m)
	}
}

// wait takes the stripe after a failed first try: it tries again after
// each runtime.Gosched — which hands its P to a holder queued behind it —
// until stripeWait has passed, and then blocks in Lock/RLock, counted in
// m.stripeParks. m.stripeWait gets the whole wait either way.
func (st *stripe) wait(excl bool, m *storeMetrics) {
	t0 := time.Now()
	defer m.stripeWait.RecordSince(t0)
	for time.Since(t0) < stripeWait {
		runtime.Gosched()
		if st.try(excl) {
			return
		}
	}
	m.stripeParks.Inc()
	if excl {
		st.Lock()
	} else {
		st.RLock()
	}
}

func (st *stripe) try(excl bool) bool {
	if excl {
		return st.TryLock()
	}
	return st.TryRLock()
}

// release drops what acquire(excl) took.
func (st *stripe) release(excl bool) {
	if excl {
		st.Unlock()
	} else {
		st.RUnlock()
	}
}

// stripeOf maps a tree key to its stripe: the high bits of its mix, which
// the shard choice (the low end, mod the shard count) leaves uncorrelated.
func stripeOf(treeKey uint64) int {
	return int(mix(treeKey) >> (64 - stripeBits))
}

// Open creates a fresh store: opts.Shards pools, one FAST+FAIR tree per
// pool, each branded with a shard stamp so Reopen can reject mismatched
// images.
func Open(opts Options) (*Store, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	s := &Store{opts: opts, shards: make([]shard, opts.Shards), met: newStoreMetrics()}
	for i := range s.shards {
		mem := opts.Mem
		mem.Size = opts.ShardSize
		p := pmem.New(mem)
		th := p.NewThread()
		ix, err := core.New(p, th, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("store: shard %d: %w", i, err)
		}
		vl, err := vlog.Create(p, th, vlogSlot, opts.ValueLogExtent)
		if err != nil {
			return nil, fmt.Errorf("store: shard %d value log: %w", i, err)
		}
		p.SetRoot(th, stampSlot, stamp(i, opts.Shards))
		p.SetRoot(th, shapeSlot, shapeWord)
		th.Release()
		s.shards[i] = shard{pool: p, ix: ix, vl: vl, gc: &shardGC{}}
	}
	return s, nil
}

// Reopen attaches to the pools of a previously opened store — reopened
// devices or post-crash images, in shard order — verifies every shard's
// stamp and shape (an image of another shape is rejected, never misread),
// and runs FAST+FAIR's eager crash recovery on each shard's tree.
// opts.Shards, if set, must equal len(pools); a zero opts.ShardSize adopts
// the pools' size.
func Reopen(pools []*pmem.Pool, opts Options) (*Store, error) {
	if opts.Shards == 0 {
		opts.Shards = len(pools)
	}
	if opts.ShardSize == 0 && len(pools) > 0 {
		// The defaults scaled to ShardSize (the redo log a shard's first
		// commit creates, the GC trigger) scale to the devices at hand, as
		// they did at Open.
		opts.ShardSize = pools[0].Size()
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if len(pools) != opts.Shards {
		return nil, fmt.Errorf("store: reopen with %d pools, want %d", len(pools), opts.Shards)
	}
	s := &Store{opts: opts, shards: make([]shard, len(pools)), met: newStoreMetrics()}
	for i, p := range pools {
		th := p.NewThread()
		if got, want := p.Root(th, stampSlot), stamp(i, len(pools)); got != want {
			return nil, fmt.Errorf("store: shard %d stamp %#x, want %#x (wrong pool, order, or shard count)", i, got, want)
		}
		if got := p.Root(th, shapeSlot); got != shapeWord {
			return nil, fmt.Errorf("store: shard %d shape %#x is not a default FAST+FAIR tree's (built with another index kind or node size)",
				i, uint64(got))
		}
		ix, err := core.Open(p, th, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("store: shard %d: %w", i, err)
		}
		if err := ix.Recover(th); err != nil {
			return nil, fmt.Errorf("store: shard %d recovery: %w", i, err)
		}
		// Value-log recovery: one read-only walk re-validates every record
		// and finds where appends resume; a damaged sealed extent fails
		// closed. Images from before the value log existed get a fresh one.
		var vl *vlog.Log
		if p.Root(th, vlogSlot) == 0 {
			vl, err = vlog.Create(p, th, vlogSlot, opts.ValueLogExtent)
		} else {
			vl, err = vlog.Open(p, th, vlogSlot)
		}
		if err != nil {
			return nil, fmt.Errorf("store: shard %d value log recovery: %w", i, err)
		}
		// Rebuild the live/garbage accounting the crash discarded (it is
		// volatile): Open's walk counted the total surviving payload as
		// live, the tree walk gives the subset still referenced. The
		// difference is garbage the next GC pass can reclaim — without
		// this, a store reopened after heavy churn would never trigger
		// automatic GC.
		total := vl.QuickStats().Live
		var live int64
		gc := &shardGC{}
		ix.Scan(th, 0, ^uint64(0), func(k, v uint64) bool {
			if r := vlog.Ref(v); vl.IsRecord(th, k, r) {
				live += int64(r.Len())
				gc.records.Store(true)
			}
			return true
		})
		garbage := total - live
		if garbage < 0 {
			garbage = 0
		}
		vl.ResetAccounting(live, garbage)
		// Transaction redo-log recovery: check the header, walk and
		// validate the records of the current generation (they survive
		// here until recoverTxns below decides their fate). A shard whose
		// log no commit ever used has none yet and nothing to settle (see
		// Store.redoLog).
		var tl *txnlog.Log
		if p.Root(th, txnSlot) != 0 {
			if tl, err = txnlog.Open(p, th, txnSlot); err != nil {
				return nil, fmt.Errorf("store: shard %d txn log recovery: %w", i, err)
			}
		}
		th.Release()
		gc.tl = tl
		s.shards[i] = shard{pool: p, ix: ix, vl: vl, gc: gc}
	}
	// With every shard rebuilt, settle in-flight transactions: replay the
	// committed (a commit record in ANY shard's log commits the
	// transaction on every shard it names), discard the rest, and
	// truncate the logs — replay strictly before truncation, so a crash
	// during recovery never erases a commit record other shards still
	// need (see recoverTxns).
	s.commitStep = opts.recoverStep
	if err := s.recoverTxns(); err != nil {
		return nil, err
	}
	s.commitStep = nil
	return s, nil
}

// mix is the splitmix64 finalizer; it decorrelates shard choice from key
// structure (sequential keys, packed bitfield keys) so partitions stay
// balanced.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ShardFor returns the shard a key hashes to. It is deterministic per shard
// count, so images reopen onto the same partitioning.
func (s *Store) ShardFor(key uint64) int {
	return int(mix(key) % uint64(len(s.shards)))
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Pool returns shard i's pool — the handles a caller snapshots for crash
// simulation and passes back to Reopen.
func (s *Store) Pool(i int) *pmem.Pool { return s.shards[i].pool }

// Pools returns every shard pool in shard order.
func (s *Store) Pools() []*pmem.Pool {
	out := make([]*pmem.Pool, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.pool
	}
	return out
}

// acquire takes an inflight reference, failing once the store is closed.
// The double check brackets the counter increment: if Close's closed flip
// lands between the first check and the Add, the second check still catches
// it before the caller touches any shard state, and the reference is
// returned so Close's drain is never held up by a doomed operation.
func (s *Store) acquire() bool {
	if s.closed.Load() {
		return false
	}
	s.inflight.Add(1)
	if s.closed.Load() {
		s.inflight.Add(-1)
		return false
	}
	return true
}

func (s *Store) release() { s.inflight.Add(-1) }

// CheckInvariants verifies structural invariants on every shard (testing
// aid; full tree walks).
func (s *Store) CheckInvariants() error {
	if !s.acquire() {
		return ErrClosed
	}
	defer s.release()
	for i, sh := range s.shards {
		th := sh.pool.NewThread()
		err := sh.ix.CheckInvariants(th)
		if err == nil {
			_, err = sh.vl.Check(th)
		}
		th.Release()
		if err != nil {
			return fmt.Errorf("store: shard %d: %w", i, err)
		}
	}
	return nil
}

// ValueLogStats aggregates the shards' value-log space accounting in plain
// fields (no internal types leak; see ROADMAP on API hygiene). All byte
// counts are payload bytes except Reclaimed and Cap, which are arena bytes.
type ValueLogStats struct {
	// Live is the payload still referenced by the trees; Garbage the
	// payload of overwritten or deleted records not yet reclaimed.
	Live, Garbage int64
	// Cap is the record space across allocated extents; Reclaimed the
	// cumulative arena bytes GC has returned to the pools.
	Cap, Reclaimed int64
	// Relocated counts records GC copied forward; GCPasses the extents
	// it reclaimed.
	Relocated, GCPasses int64
}

// GarbageRatio is the garbage fraction of the accounted payload, in [0,1].
func (v ValueLogStats) GarbageRatio() float64 {
	total := v.Live + v.Garbage
	if total <= 0 {
		return 0
	}
	return float64(v.Garbage) / float64(total)
}

// ValueStats aggregates the value-log accounting across shards. It is
// counter-backed (no log walk) and safe to call concurrently with any
// operation.
func (s *Store) ValueStats() ValueLogStats {
	var out ValueLogStats
	if !s.acquire() {
		return out
	}
	defer s.release()
	for _, sh := range s.shards {
		st := sh.vl.QuickStats()
		out.Live += st.Live
		out.Garbage += st.Garbage
		out.Cap += st.Cap
		out.Reclaimed += st.Reclaimed
		out.Relocated += st.Relocated
		out.GCPasses += st.GCPasses
	}
	return out
}

// Stats aggregates the released-thread statistics of every shard pool.
func (s *Store) Stats() pmem.Stats {
	var total pmem.Stats
	for _, sh := range s.shards {
		total.Add(sh.pool.TotalStats())
	}
	return total
}

// Close marks the store closed and drains in-flight operations. The
// persistent images stay valid; Reopen(st.Pools(), opts) resumes from them.
// Sessions may outlive Close: their operations fail with ErrClosed instead
// of racing the teardown. The error is always nil.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Most operations are short, so yield first; but Len and Scan hold
	// their reference across full multi-shard walks, so back off to
	// sleeping rather than burning a core until they finish.
	for spins := 0; s.inflight.Load() != 0; spins++ {
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}
