package store

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/vlog"
)

// The funnel contract as one table: every way to mutate the store, plain or
// transactional, crossed with every refusal and side effect the write funnel
// (Session.mutate / applyShared / Txn.Commit over Session.apply) promises.
// A column must read the same on every row it applies to — the families
// differ in what they write, never in how a write is gated.

var (
	funnelUKey  = uint64(1)<<40 | 7
	funnelBKey  = []byte("funnel-key-0001")
	funnelSmall = []byte("v")
)

// funnelRows names each mutation kind. appends marks the rows whose write
// needs value-log space up front, so admission applies to them: a byte-key
// delete inside a commit is pre-admitted at its bucket's size (nothing may
// fail past the commit point), a plain one just rewrites or removes.
var funnelRows = []struct {
	name    string
	byteKey bool
	appends bool
	run     func(ss *Session) error
}{
	{"Put", false, false, func(ss *Session) error { return ss.Put(funnelUKey, 1) }},
	{"Delete", false, false, func(ss *Session) error { _, err := ss.Delete(funnelUKey); return err }},
	{"PutBytes", false, true, func(ss *Session) error { return ss.PutBytes(funnelUKey, funnelSmall) }},
	{"PutKV", true, true, func(ss *Session) error { return ss.PutKV(funnelBKey, funnelSmall) }},
	{"DeleteKV", true, false, func(ss *Session) error { _, err := ss.DeleteKV(funnelBKey); return err }},
	{"PutBatch", false, false, func(ss *Session) error { return ss.PutBatch([]KV{{funnelUKey, 1}}) }},
	{"Commit/Put", false, false, func(ss *Session) error {
		return commitOne(ss, func(tx *Txn) error { return tx.Put(funnelUKey, 1) })
	}},
	{"Commit/Delete", false, false, func(ss *Session) error {
		return commitOne(ss, func(tx *Txn) error { return tx.Delete(funnelUKey) })
	}},
	{"Commit/PutKV", true, true, func(ss *Session) error {
		return commitOne(ss, func(tx *Txn) error { return tx.PutKV(funnelBKey, funnelSmall) })
	}},
	{"Commit/DeleteKV", true, true, func(ss *Session) error {
		return commitOne(ss, func(tx *Txn) error { return tx.DeleteKV(funnelBKey) })
	}},
}

// funnelReads names each read entry point. Reads take the same close gate
// as the writes, and nothing else: a store latched read-only still serves
// them.
var funnelReads = []struct {
	name string
	run  func(ss *Session) error
}{
	{"Get", func(ss *Session) error { _, _, err := ss.Get(funnelUKey); return err }},
	{"GetBytes", func(ss *Session) error { _, _, err := ss.GetBytes(funnelUKey, nil); return err }},
	{"GetKV", func(ss *Session) error { _, _, err := ss.GetKV(funnelBKey, nil); return err }},
	{"GetBatch", func(ss *Session) error {
		return ss.GetBatch([]uint64{funnelUKey}, make([]uint64, 1), make([]bool, 1))
	}},
	{"Scan", func(ss *Session) error { return ss.Scan(0, ^uint64(0), func(_, _ uint64) bool { return true }) }},
	{"ScanLimit", func(ss *Session) error { _, err := ss.ScanLimit(0, ^uint64(0), 16); return err }},
	{"ScanBytes", func(ss *Session) error {
		return ss.ScanBytes(funnelUKey, funnelUKey, 0, func(uint64, []byte) bool { return true })
	}},
	{"ScanKV", func(ss *Session) error {
		return ss.ScanKV(funnelBKey, funnelBKey, 0, func(_, _ []byte) bool { return true })
	}},
	{"Len", func(ss *Session) error { _, err := ss.Len(); return err }},
}

func commitOne(ss *Session, buffer func(*Txn) error) error {
	tx := ss.Begin()
	if err := buffer(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// funnelState is what a refused mutation must leave untouched: both target
// keys as their own family reads them, the key count and the log accounting.
type funnelState struct {
	u, b       string
	keys       int
	live, dead int64
}

func readFunnelState(t *testing.T, st *Store, ss *Session) funnelState {
	t.Helper()
	u, uok, uerr := ss.GetBytes(funnelUKey, nil)
	b, bok, berr := ss.GetKV(funnelBKey, nil)
	n, err := ss.Len()
	if err != nil {
		t.Fatal(err)
	}
	vs := st.ValueStats()
	return funnelState{
		u: fmt.Sprint(u, uok, uerr), b: fmt.Sprint(b, bok, berr),
		keys: n, live: vs.Live, dead: vs.Garbage,
	}
}

// openFunnel opens a one-shard store holding val under both target keys,
// with the shard's redo log already created (a first commit as home
// allocates it, which a full pool could not).
func openFunnel(t *testing.T, opts Options, val []byte) (*Store, *Session) {
	t.Helper()
	opts.Shards = 1
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()
	t.Cleanup(func() { ss.Close(); st.Close() })
	if err := commitOne(ss, func(tx *Txn) error { return tx.Put(99, 99) }); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutBytes(funnelUKey, val); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutKV(funnelBKey, val); err != nil {
		t.Fatal(err)
	}
	return st, ss
}

func TestFunnelContract(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		for _, row := range funnelRows {
			st, ss := openFunnel(t, Options{ShardSize: 4 << 20}, funnelSmall)
			st.Close()
			if err := row.run(ss); !errors.Is(err, ErrClosed) {
				t.Errorf("%s on a closed store: %v, want ErrClosed", row.name, err)
			}
		}
		for _, row := range funnelReads {
			st, ss := openFunnel(t, Options{ShardSize: 4 << 20}, funnelSmall)
			st.Close()
			if err := row.run(ss); !errors.Is(err, ErrClosed) {
				t.Errorf("%s on a closed store: %v, want ErrClosed", row.name, err)
			}
		}
	})

	t.Run("latched", func(t *testing.T) {
		for _, row := range funnelRows {
			st, ss := openFunnel(t, Options{ShardSize: 4 << 20}, funnelSmall)
			st.txnFailed.Store(true)
			before := readFunnelState(t, st, ss)
			if err := row.run(ss); !errors.Is(err, ErrReopenRequired) {
				t.Errorf("%s on a latched store: %v, want ErrReopenRequired", row.name, err)
			}
			if after := readFunnelState(t, st, ss); after != before {
				t.Errorf("%s refused by the latch changed the store:\n before %+v\n after  %+v", row.name, before, after)
			}
		}
		for _, row := range funnelReads {
			st, ss := openFunnel(t, Options{ShardSize: 4 << 20}, funnelSmall)
			st.txnFailed.Store(true)
			if err := row.run(ss); err != nil {
				t.Errorf("%s on a latched store: %v, want it served", row.name, err)
			}
		}
	})

	// Manual-only GC, so a refusal is not preceded by an inline pass that
	// repacks the log: the pool stays exactly as full as the fill left it.
	t.Run("full pool", func(t *testing.T) {
		for _, row := range funnelRows {
			st, ss := openFunnel(t, Options{ShardSize: 4 << 20, ValueLogExtent: 256 << 10, GCGarbageRatio: -1}, funnelSmall)
			// Fill until admission refuses even an empty record: first in
			// big steps, then with empty values into the last extent's tail.
			next := uint64(1) << 41
			for _, fill := range [][]byte{make([]byte, 8<<10), {}} {
				var err error
				for ; err == nil && next < 1<<41+1<<16; next++ {
					err = ss.PutBytes(next, fill)
				}
				if !errors.Is(err, ErrNoSpace) {
					t.Fatalf("filling the pool with %d-byte values: %v, want ErrNoSpace", len(fill), err)
				}
			}
			before := readFunnelState(t, st, ss)
			err := row.run(ss)
			switch {
			case !row.appends:
				// Degraded, not dead: what appends nothing still works.
				if err != nil {
					t.Errorf("%s on a full pool: %v, want success (it needs no log space)", row.name, err)
				}
			case !errors.Is(err, ErrNoSpace):
				t.Errorf("%s on a full pool: %v, want ErrNoSpace", row.name, err)
			default:
				if after := readFunnelState(t, st, ss); after != before {
					t.Errorf("%s refused at admission changed the store:\n before %+v\n after  %+v", row.name, before, after)
				}
			}
		}
	})

	// The target holds two extents' worth of value and nothing else does, so
	// displacing it takes the shard from no garbage to past the ratio.
	t.Run("gc trigger", func(t *testing.T) {
		for _, row := range funnelRows {
			st, err := Open(Options{Shards: 1, ShardSize: 16 << 20, ValueLogExtent: 4096})
			if err != nil {
				t.Fatal(err)
			}
			ss := st.NewSession()
			big := bytes.Repeat([]byte{0xab}, 8<<10)
			if row.byteKey {
				err = ss.PutKV(funnelBKey, big)
			} else {
				err = ss.PutBytes(funnelUKey, big)
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := st.met.gcPause.Snapshot().Count(); n != 0 {
				t.Fatalf("%s: %d GC passes during setup", row.name, n)
			}
			if err := row.run(ss); err != nil {
				t.Errorf("%s: %v", row.name, err)
			}
			if n := st.met.gcPause.Snapshot().Count(); n != 1 {
				t.Errorf("%s displaced the shard's only large record: %d GC passes, want exactly 1", row.name, n)
			}
			ss.Close()
			st.Close()
		}
	})
}

// TestSpaceErrMapping pins the one value-log-refusal mapping every append
// and every admission shares: both refusals the log can give are ErrNoSpace,
// nothing else is.
func TestSpaceErrMapping(t *testing.T) {
	for _, refusal := range []error{vlog.ErrFull, vlog.ErrTooLarge} {
		if err := spaceErr(3, fmt.Errorf("%w: detail", refusal)); !errors.Is(err, ErrNoSpace) {
			t.Errorf("spaceErr(%v) = %v, want ErrNoSpace", refusal, err)
		}
	}
	if err := spaceErr(3, vlog.ErrCorrupt); errors.Is(err, ErrNoSpace) || !errors.Is(err, vlog.ErrCorrupt) {
		t.Errorf("spaceErr(ErrCorrupt) = %v, want the cause passed through, not ErrNoSpace", err)
	}
}
