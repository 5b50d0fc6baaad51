package store

import (
	"fmt"
	"time"

	"repro/internal/vlog"
)

// Value-log garbage collection, threaded through the store's shard
// discipline.
//
// Each shard compacts independently: a pass walks the shard's value log
// oldest-extent-first, copies the records its tree still references to the
// log tail (an ordinary failure-atomic append), commits each copy with a
// latched conditional replace of the tree word (old ref → new ref, refusing
// if a concurrent writer got there first), then waits out a grace period
// and frees the extent. Liveness is the tree's word: a record is live iff
// Get(record.key) returns its ref — the one fact the log cannot know by
// itself and the reason records carry their key.
//
// # Why no tree ref can ever name freed log space
//
// The reclamation gate is the shard pool's grace period (internal/pmem,
// epoch.go) — the one that also recycles the tree's value boxes. Everyone
// who is in a window where a log record matters without the tree fully
// saying so is inside a section on its own shard thread (Thread.Enter /
// Exit): readers for their tree-word→log-bytes resolve, and PutBytes /
// PutKV writers from the log append to the tree install (the appended
// record is invisible to GC's liveness until the install lands). The GC
// pass fences once on entry, then runs, per extent, relocation sweep →
// fence → free, where each fence is Pool.Synchronize: it returns when every
// section that was open at the call has closed. Consider extent E:
//
//   - A writer that appended into E but had not installed the ref when
//     the pass began: E was sealed before the pass read its stopping
//     extent, so the entry fence waits out the install, and E's sweep
//     relocates the record. No ref into E can be installed after that —
//     each append's ref is installed exactly once, by its own writer.
//   - A reader whose section was open when E's fence began: the fence waits
//     for it, so E outlives the access. It may read a pre-swap (old) copy —
//     intact (records are immutable and E unfreed) and byte-identical to
//     the relocated one unless it raced an application overwrite, which is
//     the store's documented read-uncommitted window, not a GC artifact.
//   - A reader whose section opens after E's fence began: it loads the ref
//     from the tree after every swap committed, so the ref does not point
//     into E.
//
// A fence never blocks a section from opening, and sections nest, so the
// tree's own per-read sections inside a store-level one are free. The pass
// itself runs outside any section — Synchronize would otherwise wait for
// its own caller — which is why every trigger fires after the triggering
// operation has closed its section and dropped its locks.
//
// Scans resolve words collected before their per-record section, so they
// additionally retry through the tree when a snapshot word no longer
// validates — see Session.resolve, the one loop every reader shares.
//
// Automatic passes piggyback on the writing session: when an overwrite or
// delete tips a shard past Options.GCGarbageRatio (and one extent's worth
// of garbage exists), the writer runs the pass inline on its own
// per-shard thread. The log's own gcMu keeps passes singular per shard;
// automatic triggers only try it (vlog.Log.GC with wait=false), so at most
// one writer pays while the rest proceed.

// CompactStats aggregates the work of the per-shard GC passes one
// CompactValues call ran.
type CompactStats struct {
	// ExtentsFreed counts log extents unlinked and returned to their
	// pools; ReclaimedBytes their total arena bytes (headers included).
	ExtentsFreed   int
	ReclaimedBytes int64
	// Relocated counts live records copied to their log's tail;
	// DroppedBytes the payload of dead records discarded with their
	// extents; Skipped relocations abandoned because the application
	// overwrote the key mid-pass.
	Relocated    int
	DroppedBytes int64
	Skipped      int
}

func (c *CompactStats) add(r vlog.GCResult) {
	c.ExtentsFreed += r.Extents
	c.ReclaimedBytes += r.ReclaimedBytes
	c.Relocated += r.Relocated
	c.DroppedBytes += r.DroppedBytes
	c.Skipped += r.Skipped
}

// CompactValues runs a full value-log GC pass on every shard, reclaiming
// the space of overwritten and deleted varlen values, and reports the work
// done. It is safe to call concurrently with any other operation — readers
// and writers on the same shards proceed during the pass (writers may
// briefly serialise with a relocation's tree swap on a shared leaf) — and
// concurrently with itself, passes on one shard simply queueing. On a
// closed store it returns ErrClosed.
//
// Compaction needs headroom to copy an extent's live records before the
// extent is freed; a pool too full to stage them fails with the shard's
// ErrFull-wrapped error, so compact before the pool is exhausted (the
// automatic GCGarbageRatio trigger exists for exactly that).
func (ss *Session) CompactValues() (CompactStats, error) {
	var cs CompactStats
	if !ss.s.acquire() {
		return cs, ErrClosed
	}
	defer ss.s.release()
	for i := range ss.s.shards {
		res, err := ss.compactShard(i, 0, true)
		cs.add(res)
		if err != nil {
			return cs, fmt.Errorf("store: shard %d GC: %w", i, err)
		}
	}
	return cs, nil
}

// autoGCExtents bounds one automatic trigger's pass: the triggering writer
// pays for a few extents, not the shard's whole backlog — steady-state
// reclamation is the same (triggers keep firing while the ratio holds),
// but no single Put/Delete absorbs a full-log compaction latency cliff.
const autoGCExtents = 4

// compactShard runs one GC pass on shard i using the session's thread,
// reclaiming at most maxExtents extents (0 = no bound). When wait is false
// (automatic triggers) a pass already running on the shard makes this a
// no-op. Caller holds the store's close gate.
func (ss *Session) compactShard(i, maxExtents int, wait bool) (vlog.GCResult, error) {
	sh := &ss.s.shards[i]
	th := ss.ths[i]
	start := time.Now()
	res, err := sh.vl.GC(th, maxExtents, wait, vlog.GCFuncs{
		Live: func(key uint64, ref vlog.Ref) bool {
			v, ok := sh.ix.Get(th, key)
			return ok && v == uint64(ref)
		},
		Swap: func(key uint64, old, new vlog.Ref) bool {
			return sh.ix.ReplaceIf(th, key, uint64(old), uint64(new))
		},
		// Waits out every writer mid-install of an appended record's ref
		// (on entry) and every reader that could hold a pre-swap ref
		// snapshot (per extent); see the package comment above.
		Fence: sh.pool.Synchronize,
	})
	if !res.Busy {
		ss.s.met.recordGC(start, res.Relocated)
	}
	return res, err
}

// maybeGC is the automatic trigger, called after an operation turned a
// live record into garbage. It must be called without the close gate held
// (it re-acquires it), so a long pass never delays Close observing the
// triggering operation's completion.
func (ss *Session) maybeGC(i int) {
	ratio := ss.s.opts.GCGarbageRatio
	if ratio < 0 {
		return
	}
	st := ss.s.shards[i].vl.QuickStats()
	if st.Garbage < ss.s.opts.ValueLogExtent || st.GarbageRatio() < ratio {
		return
	}
	if !ss.s.acquire() {
		return
	}
	defer ss.s.release()
	// Best-effort: errors (e.g. a pool too full to stage relocations) are
	// not the triggering operation's failure; the next trigger or a
	// manual CompactValues surfaces persistent trouble.
	_, _ = ss.compactShard(i, autoGCExtents, false)
}
