package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// Crash-consistency proofs for the transaction commit protocol.
//
// The single-shard matrix tapes one mixed commit and reopens at EVERY
// persist point under every crash mode; the cross-shard matrix uses the
// store's commitStep hook to enumerate every CONSISTENT CUT of a commit
// spanning several shards — one shard's pool crashed mid-phase while the
// others sit at the step boundary the single-threaded commit had them at.
// In both, the contract is all-or-nothing: the recovered store holds
// either the complete pre-transaction state or the complete
// post-transaction state, never a mix, with the untouched population
// intact and the store writable afterwards.

// txnEffect describes one key's before/after states across the taped
// transaction. nil-with-absent semantics: pre/post of nil mean absent.
type txnEffect struct {
	fixed  bool
	key    uint64
	bkey   []byte
	pre    *uint64 // fixed: nil = absent
	post   *uint64
	preKV  []byte // byte-key: nil = absent
	postKV []byte
}

func u64p(v uint64) *uint64 { return &v }

// checkAtomic classifies the recovered image as pre- or post-transaction
// and fails on any mixed state. Returns true when the transaction's
// effects are (all) visible.
func checkAtomic(t *testing.T, ss *Session, effects []txnEffect, tag string) bool {
	t.Helper()
	state := -1 // -1 unknown, 0 pre, 1 post
	classify := func(isPost, isPre bool, desc string) {
		t.Helper()
		switch {
		case isPost && isPre:
			// Effect with identical pre/post carries no information.
		case isPost:
			if state == 0 {
				t.Fatalf("%s: MIXED state: %s is post-txn but an earlier key was pre-txn", tag, desc)
			}
			state = 1
		case isPre:
			if state == 1 {
				t.Fatalf("%s: MIXED state: %s is pre-txn but an earlier key was post-txn", tag, desc)
			}
			state = 0
		default:
			t.Fatalf("%s: %s in ILLEGAL state (neither pre nor post)", tag, desc)
		}
	}
	for _, e := range effects {
		if e.fixed {
			v, ok, err := ss.Get(e.key)
			if err != nil {
				t.Fatalf("%s: Get %d: %v", tag, e.key, err)
			}
			isPre := (e.pre == nil && !ok) || (e.pre != nil && ok && v == *e.pre)
			isPost := (e.post == nil && !ok) || (e.post != nil && ok && v == *e.post)
			classify(isPost, isPre, fmt.Sprintf("key %d (v=%d ok=%v)", e.key, v, ok))
		} else {
			v, ok, err := ss.GetKV(e.bkey, nil)
			if err != nil {
				t.Fatalf("%s: GetKV %q: %v", tag, e.bkey, err)
			}
			isPre := (e.preKV == nil && !ok) || (e.preKV != nil && ok && bytes.Equal(v, e.preKV))
			isPost := (e.postKV == nil && !ok) || (e.postKV != nil && ok && bytes.Equal(v, e.postKV))
			classify(isPost, isPre, fmt.Sprintf("byte key %q (ok=%v len=%d)", e.bkey, ok, len(v)))
		}
	}
	return state == 1
}

// logLens returns every pool's crash-log length: the cut a crash at this
// instant takes.
func logLens(pools []*pmem.Pool) []int {
	v := make([]int, len(pools))
	for i, p := range pools {
		v[i] = p.LogLen()
	}
	return v
}

// advancing returns the one pool whose log grew from step vector prev to
// cur — segment seg of a taped protocol — or -1 if none did. Two growing
// pools fail the test: the cut between them would not be consistent.
func advancing(t *testing.T, seg int, prev, cur []int) int {
	t.Helper()
	adv := -1
	for i := range cur {
		if cur[i] != prev[i] {
			if adv != -1 {
				t.Fatalf("segment %d: pools %d and %d both advanced (%v -> %v)", seg, adv, i, prev, cur)
			}
			adv = i
		}
	}
	return adv
}

// txnCommitCrashMatrix: single shard, one mixed commit (inserts,
// overwrite, delete, byte-key put/overwrite/delete), every persist point,
// every crash mode, both memory models.
func txnCommitCrashMatrix(t *testing.T, model pmem.MemModel) {
	rng := rand.New(rand.NewSource(42))
	st, err := Open(Options{
		Shards:    1,
		ShardSize: 32 << 20,
		Mem:       pmem.Config{TrackCrashes: true, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()

	committed := map[uint64]uint64{}
	committedKV := map[string][]byte{}
	for i := uint64(0); i < 40; i++ {
		if err := ss.Put(i, i*7); err != nil {
			t.Fatal(err)
		}
		committed[i] = i * 7
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("bg-%03d", i)
		v := bytes.Repeat([]byte{byte(i + 1)}, 50+i*20)
		if err := ss.PutKV([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		committedKV[k] = v
	}
	// Keys the transaction touches: 500 overwritten, 501 deleted,
	// 502 inserted; "txn-over" overwritten, "txn-del" deleted,
	// "txn-new" inserted.
	if err := ss.Put(500, 5); err != nil {
		t.Fatal(err)
	}
	if err := ss.Put(501, 6); err != nil {
		t.Fatal(err)
	}
	preOver := []byte("pre-overwrite")
	preDel := []byte("pre-delete")
	if err := ss.PutKV([]byte("txn-over"), preOver); err != nil {
		t.Fatal(err)
	}
	if err := ss.PutKV([]byte("txn-del"), preDel); err != nil {
		t.Fatal(err)
	}
	newOver := bytes.Repeat([]byte{0xaa}, 120)
	newIns := bytes.Repeat([]byte{0xbb}, 240)
	effects := []txnEffect{
		{fixed: true, key: 500, pre: u64p(5), post: u64p(55)},
		{fixed: true, key: 501, pre: u64p(6), post: nil},
		{fixed: true, key: 502, pre: nil, post: u64p(52)},
		{bkey: []byte("txn-over"), preKV: preOver, postKV: newOver},
		{bkey: []byte("txn-del"), preKV: preDel, postKV: nil},
		{bkey: []byte("txn-new"), preKV: nil, postKV: newIns},
	}

	pool := st.Pool(0)
	pool.StartCrashLog()
	tx := ss.Begin()
	if err := tx.Put(500, 55); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(501); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(502, 52); err != nil {
		t.Fatal(err)
	}
	if err := tx.PutKV([]byte("txn-over"), newOver); err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteKV([]byte("txn-del")); err != nil {
		t.Fatal(err)
	}
	if err := tx.PutKV([]byte("txn-new"), newIns); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	tape := pool.LogLen()
	if tape == 0 {
		t.Fatal("empty crash tape")
	}
	for cp, img := range pool.CrashImages(rng) {
		tag := cp.String()
		re := reopenImages(t, tag, Options{}, img)
		rs := re.NewSession()
		for k, v := range committed {
			got, ok, err := rs.Get(k)
			if err != nil || !ok || got != v {
				t.Fatalf("%s: committed key %d: got=%d ok=%v err=%v", tag, k, got, ok, err)
			}
		}
		for k, v := range committedKV {
			got, ok, err := rs.GetKV([]byte(k), nil)
			if err != nil || !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: committed byte key %q: ok=%v err=%v", tag, k, ok, err)
			}
		}
		post := checkAtomic(t, rs, effects, tag)
		if cp.Point == tape && !post {
			t.Fatalf("%s: completed commit rolled back at full tape", tag)
		}
		// Recovered store stays writable — plain and transactional.
		if err := rs.Put(9000, 9); err != nil {
			t.Fatalf("%s: post-recovery put: %v", tag, err)
		}
		tx := rs.Begin()
		if err := tx.Put(9001, 91); err != nil {
			t.Fatalf("%s: post-recovery txn put: %v", tag, err)
		}
		if err := tx.PutKV([]byte("after"), []byte("crash")); err != nil {
			t.Fatalf("%s: post-recovery txn putkv: %v", tag, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("%s: post-recovery txn commit: %v", tag, err)
		}
		rs.Close()
		re.Close()
	}
	ss.Close()
	st.Close()
}

func TestTxnCrashEveryPointOfOneCommit(t *testing.T)       { txnCommitCrashMatrix(t, pmem.TSO) }
func TestTxnCrashEveryPointOfOneCommitNonTSO(t *testing.T) { txnCommitCrashMatrix(t, pmem.NonTSO) }

// txnCrossShardCrashMatrix commits one transaction spanning at least
// three of four shards while the commitStep hook snapshots every pool's
// persist count at each protocol step. Commits are single-threaded, so
// between consecutive snapshots exactly one pool advances; crashing that
// pool at every interior point — under every crash mode — with the others
// frozen at their boundary counts enumerates every consistent cut of the
// distributed commit, including "one shard dies mid-phase".
func txnCrossShardCrashMatrix(t *testing.T, model pmem.MemModel) {
	rng := rand.New(rand.NewSource(1234))
	const shards = 4
	st, err := Open(Options{
		Shards:    shards,
		ShardSize: 16 << 20,
		Mem:       pmem.Config{TrackCrashes: true, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()

	// Background population across all shards.
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 100; i++ {
		if err := ss.Put(i, i+1); err != nil {
			t.Fatal(err)
		}
		committed[i] = i + 1
	}
	// Pick fixed keys landing on at least three distinct shards, plus a
	// byte key (its shard counts too). Keys 1000..1063 hit every shard
	// with any sane distribution; collect one insert + one overwrite or
	// delete per shard.
	var insertKeys, overKeys []uint64
	seenIns := map[int]bool{}
	seenOver := map[int]bool{}
	for k := uint64(1000); len(insertKeys) < shards || len(overKeys) < shards; k++ {
		sh := st.ShardFor(k)
		if !seenIns[sh] {
			seenIns[sh] = true
			insertKeys = append(insertKeys, k)
		} else if !seenOver[sh] {
			seenOver[sh] = true
			overKeys = append(overKeys, k)
		}
		if k > 100000 {
			t.Fatal("could not spread keys over shards")
		}
	}
	for _, k := range overKeys {
		if err := ss.Put(k, 7); err != nil {
			t.Fatal(err)
		}
	}
	bkey := []byte("cross-shard-kv")
	preKV := []byte("kv-before")
	postKV := bytes.Repeat([]byte{0xcc}, 180)
	if err := ss.PutKV(bkey, preKV); err != nil {
		t.Fatal(err)
	}

	var effects []txnEffect
	for _, k := range insertKeys {
		effects = append(effects, txnEffect{fixed: true, key: k, pre: nil, post: u64p(k * 2)})
	}
	// First overwrite key becomes a delete, the rest are overwrites.
	effects = append(effects, txnEffect{fixed: true, key: overKeys[0], pre: u64p(7), post: nil})
	for _, k := range overKeys[1:] {
		effects = append(effects, txnEffect{fixed: true, key: k, pre: u64p(7), post: u64p(k * 3)})
	}
	effects = append(effects, txnEffect{bkey: bkey, preKV: preKV, postKV: postKV})

	// Arm the consistent-cut recorder and tape the commit.
	for i := 0; i < shards; i++ {
		st.Pool(i).StartCrashLog()
	}
	vectors := [][]int{logLens(st.Pools())} // all zeros: the nothing-happened cut
	st.commitStep = func() { vectors = append(vectors, logLens(st.Pools())) }

	tx := ss.Begin()
	for _, k := range insertKeys {
		if err := tx.Put(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Delete(overKeys[0]); err != nil {
		t.Fatal(err)
	}
	for _, k := range overKeys[1:] {
		if err := tx.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.PutKV(bkey, postKV); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	st.commitStep = nil
	// The start, then one step for the commit record, one per shard's apply
	// and one for the truncation.
	if want := 1 + 1 + shards + 1; len(vectors) != want {
		t.Fatalf("%d step vectors for a %d-shard txn, want %d", len(vectors), shards, want)
	}

	cuts := 0
	examine := func(cut []int, tag string, wantPost int) {
		t.Helper()
		for _, mode := range pmem.CrashModes {
			mtag := fmt.Sprintf("%s %v", tag, mode)
			re := reopenCut(t, mtag, st.Pools(), func(i int) int { return cut[i] }, mode, rng)
			rs := re.NewSession()
			for k, v := range committed {
				got, ok, err := rs.Get(k)
				if err != nil || !ok || got != v {
					t.Fatalf("%s: committed key %d: got=%d ok=%v err=%v", mtag, k, got, ok, err)
				}
			}
			post := checkAtomic(t, rs, effects, mtag)
			if wantPost == 1 && !post {
				t.Fatalf("%s: completed commit rolled back", mtag)
			}
			if wantPost == 0 && post {
				t.Fatalf("%s: transaction visible before any persist", mtag)
			}
			// Recovered store accepts a fresh cross-shard transaction.
			tx := rs.Begin()
			for i := uint64(0); i < 8; i++ {
				if err := tx.Put(77000+i, i); err != nil {
					t.Fatalf("%s: post-recovery buffer: %v", mtag, err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("%s: post-recovery commit: %v", mtag, err)
			}
			rs.Close()
			re.Close()
			cuts++
		}
	}

	examine(vectors[0], "cut v0", 0)
	for s := 1; s < len(vectors); s++ {
		prev, cur := vectors[s-1], vectors[s]
		adv := advancing(t, s, prev, cur)
		if adv == -1 {
			continue // step with no persists
		}
		want := -1
		if s == len(vectors)-1 {
			want = 1 // home log truncated: commit fully applied
		}
		for point := prev[adv] + 1; point <= cur[adv]; point++ {
			cut := append([]int(nil), prev...)
			cut[adv] = point
			w := -1
			if point == cur[adv] && want == 1 {
				w = 1
			}
			examine(cut, fmt.Sprintf("seg %d pool %d point %d/%d", s, adv, point, cur[adv]), w)
		}
	}
	if cuts < 3*shards {
		t.Fatalf("matrix degenerated: only %d cuts examined", cuts)
	}
	t.Logf("examined %d consistent cuts over %d step vectors", cuts, len(vectors))
	ss.Close()
	st.Close()
}

func TestTxnCrossShardAtomicityCrash(t *testing.T)       { txnCrossShardCrashMatrix(t, pmem.TSO) }
func TestTxnCrossShardAtomicityCrashNonTSO(t *testing.T) { txnCrossShardCrashMatrix(t, pmem.NonTSO) }

// TestTxnCrashRandomCampaign fires random whole-system crash points (all
// pools cut at one tape position each, CrashRandom) across repeated
// multi-shard commits under both memory models.
func TestTxnCrashRandomCampaign(t *testing.T) {
	iters := 12
	crashesPer := 6
	if testing.Short() {
		iters, crashesPer = 4, 3
	}
	for _, model := range []pmem.MemModel{pmem.TSO, pmem.NonTSO} {
		t.Run(model.String(), func(t *testing.T) {
			for it := 0; it < iters; it++ {
				rng := rand.New(rand.NewSource(int64(9000*it) + int64(model)))
				const shards = 3
				st, err := Open(Options{
					Shards:    shards,
					ShardSize: 16 << 20,
					Mem:       pmem.Config{TrackCrashes: true, Model: model},
				})
				if err != nil {
					t.Fatal(err)
				}
				ss := st.NewSession()
				stable := map[uint64]uint64{}
				for i := uint64(0); i < 60; i++ {
					if err := ss.Put(i, rng.Uint64()); err != nil {
						t.Fatal(err)
					}
					v, _, _ := ss.Get(i)
					stable[i] = v
				}
				var effects []txnEffect
				for i := 0; i < shards; i++ {
					st.Pool(i).StartCrashLog()
				}
				vectors := [][]int{logLens(st.Pools())}
				st.commitStep = func() { vectors = append(vectors, logLens(st.Pools())) }
				tx := ss.Begin()
				nops := 5 + rng.Intn(20)
				for i := 0; i < nops; i++ {
					k := uint64(2000 + rng.Intn(500))
					v := rng.Uint64()
					if err := tx.Put(k, v); err != nil {
						t.Fatal(err)
					}
				}
				// Read the final buffered state to build effects (last
				// write wins inside the buffer).
				for k, w := range tx.fixed {
					effects = append(effects, txnEffect{fixed: true, key: k, pre: nil, post: u64p(w.val)})
				}
				bk := []byte(fmt.Sprintf("rc-%d", it))
				bv := bytes.Repeat([]byte{byte(it + 1)}, 1+rng.Intn(400))
				if err := tx.PutKV(bk, bv); err != nil {
					t.Fatal(err)
				}
				effects = append(effects, txnEffect{bkey: bk, preKV: nil, postKV: bv})
				if err := tx.Commit(); err != nil {
					t.Fatalf("iter %d: commit: %v", it, err)
				}
				st.commitStep = nil
				// Sample random consistent cuts: a random protocol
				// segment, a random persist point inside the advancing
				// pool's stretch, all other pools at the segment
				// boundary. (Independent per-pool cut points would let
				// one pool travel back in time relative to another — a
				// state no single-instant crash can produce.)
				for c := 0; c < crashesPer; c++ {
					s := 1 + rng.Intn(len(vectors)-1)
					prev, cur := vectors[s-1], vectors[s]
					cut := append([]int(nil), prev...)
					for i := 0; i < shards; i++ {
						if cur[i] != prev[i] {
							cut[i] = prev[i] + 1 + rng.Intn(cur[i]-prev[i])
						}
					}
					tag := fmt.Sprintf("iter %d crash %d cut %v", it, c, cut)
					re := reopenCut(t, tag, st.Pools(), func(i int) int { return cut[i] }, pmem.CrashRandom, rng)
					rs := re.NewSession()
					for k, v := range stable {
						got, ok, err := rs.Get(k)
						if err != nil || !ok || got != v {
							t.Fatalf("%s: stable key %d: got=%d ok=%v err=%v", tag, k, got, ok, err)
						}
					}
					checkAtomic(t, rs, effects, tag)
					rs.Close()
					re.Close()
				}
				ss.Close()
				st.Close()
			}
		})
	}
}

// txnRecoveryDoubleCrashMatrix proves the recovery protocol is itself
// crash-consistent. It crashes a cross-shard commit (first crash), tapes
// the recovery Reopen runs on that image, crashes THAT recovery at its
// consistent cuts (second crash), and requires the final recovery to land
// on the same all-or-nothing verdict the uninterrupted recovery reached.
// The home shard's log holds the transaction's one commit record — the whole
// write-set — from its append to the end of the commit, so every post-record
// first crash is a state where truncating that log before every shard
// replayed would let a second crash erase the commit point and strand a
// committed transaction half-applied; the first-crash cuts cover the record
// append itself at every persist point.
//
// The store has never committed before the taped commit, so no shard has a
// redo log yet and the commit's record append creates the home shard's. With
// reopened set the populated store is first closed and reopened — every
// shard's txnSlot must still read empty — and the matrix runs on that store.
func txnRecoveryDoubleCrashMatrix(t *testing.T, model pmem.MemModel, reopened bool) {
	rng := rand.New(rand.NewSource(20260808))
	const shards = 2
	st, err := Open(Options{
		Shards:    shards,
		ShardSize: 8 << 20,
		Mem:       pmem.Config{TrackCrashes: true, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := st.NewSession()

	committed := map[uint64]uint64{}
	for i := uint64(0); i < 50; i++ {
		if err := ss.Put(i, i+3); err != nil {
			t.Fatal(err)
		}
		committed[i] = i + 3
	}
	// One insert and one overwrite per shard, plus a byte key, so the commit
	// record names every shard; the first shard's log alone holds it.
	var insertKeys, overKeys []uint64
	seenIns := map[int]bool{}
	seenOver := map[int]bool{}
	for k := uint64(3000); len(insertKeys) < shards || len(overKeys) < shards; k++ {
		sh := st.ShardFor(k)
		if !seenIns[sh] {
			seenIns[sh] = true
			insertKeys = append(insertKeys, k)
		} else if !seenOver[sh] {
			seenOver[sh] = true
			overKeys = append(overKeys, k)
		}
		if k > 100000 {
			t.Fatal("could not spread keys over shards")
		}
	}
	for _, k := range overKeys {
		if err := ss.Put(k, 9); err != nil {
			t.Fatal(err)
		}
	}
	bkey := []byte("double-crash-kv")
	preKV := []byte("kv-first")
	postKV := bytes.Repeat([]byte{0xdd}, 150)
	if err := ss.PutKV(bkey, preKV); err != nil {
		t.Fatal(err)
	}
	var effects []txnEffect
	for _, k := range insertKeys {
		effects = append(effects, txnEffect{fixed: true, key: k, pre: nil, post: u64p(k * 2)})
	}
	for _, k := range overKeys {
		effects = append(effects, txnEffect{fixed: true, key: k, pre: u64p(9), post: u64p(k * 3)})
	}
	effects = append(effects, txnEffect{bkey: bkey, preKV: preKV, postKV: postKV})

	if reopened {
		ss.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = Reopen(st.Pools(), Options{}); err != nil {
			t.Fatal(err)
		}
		ss = st.NewSession()
		requireNoRedoLogs(t, st)
	}
	for i := 0; i < shards; i++ {
		st.Pool(i).StartCrashLog()
	}
	vectors := [][]int{logLens(st.Pools())}
	st.commitStep = func() { vectors = append(vectors, logLens(st.Pools())) }
	tx := ss.Begin()
	for _, k := range insertKeys {
		if err := tx.Put(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range overKeys {
		if err := tx.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.PutKV(bkey, postKV); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	st.commitStep = nil
	// The start, then one step for the commit record, one per shard's apply
	// and one for the truncation.
	if want := 1 + 1 + shards + 1; len(vectors) != want {
		t.Fatalf("%d step vectors for a %d-shard txn, want %d", len(vectors), shards, want)
	}

	// checkState asserts the untouched population on a store reopenImages
	// reopened, then classifies it pre- or post-transaction.
	checkState := func(re *Store, tag string) bool {
		t.Helper()
		rs := re.NewSession()
		defer rs.Close()
		for k, v := range committed {
			got, ok, err := rs.Get(k)
			if err != nil || !ok || got != v {
				t.Fatalf("%s: committed key %d: got=%d ok=%v err=%v", tag, k, got, ok, err)
			}
		}
		return checkAtomic(t, rs, effects, tag)
	}

	// Boundary verdicts locate the commit point: the first boundary whose
	// uninterrupted recovery lands post-txn is the cut where the commit
	// record persisted.
	refVerdict := func(cut []int, tag string) bool {
		t.Helper()
		re := reopenCut(t, tag+" ref", st.Pools(), func(i int) int { return cut[i] }, pmem.CrashAll, rng)
		post := checkState(re, tag+" ref")
		re.Close()
		return post
	}
	verdicts := make([]bool, len(vectors))
	for s := range vectors {
		verdicts[s] = refVerdict(vectors[s], fmt.Sprintf("boundary %d", s))
	}
	last := len(vectors) - 1
	if verdicts[0] {
		t.Fatal("post-txn before any persist")
	}
	if !verdicts[last] {
		t.Fatal("completed commit not post-txn at full tape")
	}
	flip := -1
	for s := 1; s < len(vectors); s++ {
		if verdicts[s] {
			flip = s
			break
		}
	}
	if flip != 1 {
		t.Fatalf("commit point at boundary %d, want 1: the commit record is the protocol's first persist", flip)
	}
	for s := flip; s < len(vectors); s++ {
		if !verdicts[s] {
			t.Fatalf("verdict regressed at boundary %d", s)
		}
	}

	// First-crash cuts: the boundary before the commit point, every
	// interior point of the flip segment — the record append, the home log's
	// creation included — and (full mode) of its successor, the first
	// shard's apply, plus an apply-phase boundary and the full tape.
	type outerCut struct {
		cut []int
		tag string
	}
	var outers []outerCut
	addSeg := func(s int) {
		prev, cur := vectors[s-1], vectors[s]
		adv := advancing(t, s, prev, cur)
		if adv == -1 {
			return
		}
		for p := prev[adv] + 1; p <= cur[adv]; p++ {
			c := append([]int(nil), prev...)
			c[adv] = p
			outers = append(outers, outerCut{c, fmt.Sprintf("seg %d pool %d point %d/%d", s, adv, p, cur[adv])})
		}
	}
	outers = append(outers, outerCut{vectors[flip-1], fmt.Sprintf("boundary %d (pre-record)", flip-1)})
	addSeg(flip)
	if !testing.Short() {
		if flip+1 <= last {
			addSeg(flip + 1)
		}
		mid := (flip + 1 + last) / 2
		outers = append(outers, outerCut{vectors[mid], fmt.Sprintf("boundary %d (mid-apply)", mid)})
	}
	outers = append(outers, outerCut{vectors[last], fmt.Sprintf("boundary %d (full tape)", last)})

	sampleCap := 6
	if testing.Short() {
		sampleCap = 3
	}
	doubles := 0
	for _, oc := range outers {
		// Deterministic first-crash images: one set cloned (with tracking
		// re-enabled) for the taped recovery, the original reopened
		// uninterrupted for the expected verdict. CrashAll is
		// deterministic, so both sets are bit-identical.
		first := make([]*pmem.Pool, shards)
		tapes := make([]*pmem.Pool, shards)
		for i := 0; i < shards; i++ {
			first[i] = st.Pool(i).CrashImage(oc.cut[i], pmem.CrashAll, rng)
			tapes[i] = first[i].Clone(true)
		}
		re := reopenImages(t, oc.tag+" uninterrupted", Options{}, first...)
		want := checkState(re, oc.tag+" uninterrupted")
		re.Close()
		if want != verdicts[last] && want != verdicts[0] {
			t.Fatalf("%s: impossible verdict", oc.tag) // unreachable; checkState already fatals on mixed
		}

		// Tape the recovery running on the cloned first-crash image.
		for i := 0; i < shards; i++ {
			tapes[i].StartCrashLog()
		}
		rvecs := [][]int{logLens(tapes)}
		re2 := reopenImages(t, oc.tag+" taped", Options{recoverStep: func() { rvecs = append(rvecs, logLens(tapes)) }}, tapes...)
		if got := checkState(re2, oc.tag+" taped"); got != want {
			t.Fatalf("%s: taped recovery verdict post=%v, uninterrupted post=%v", oc.tag, got, want)
		}
		re2.Close()

		// Second crash at the taped recovery's consistent cuts: whatever
		// the interruption, the next (uninterrupted) recovery must land on
		// the same verdict — a committed transaction stays committed, an
		// uncommitted one stays invisible. The stretch before the first
		// recoverStep firing covers Reopen's per-shard rebuild, where
		// several pools advance between hooks; only its closing boundary
		// is a provable consistent cut. From the first firing on, recovery
		// is single-threaded and exactly one pool advances per segment.
		examine2 := func(cut []int, tag2 string) {
			t.Helper()
			for _, mode := range pmem.CrashModes[1:] { // CrashAll, CrashRandom
				mtag := fmt.Sprintf("%s / second crash %s %v", oc.tag, tag2, mode)
				re3 := reopenCut(t, mtag, tapes, func(i int) int { return cut[i] }, mode, rng)
				if got := checkState(re3, mtag); got != want {
					t.Fatalf("%s: double-crash verdict post=%v, uninterrupted post=%v", mtag, got, want)
				}
				// Fully recovered: the store takes fresh commits again.
				rs := re3.NewSession()
				ftx := rs.Begin()
				if err := ftx.Put(88000, 1); err != nil {
					t.Fatalf("%s: post-recovery buffer: %v", mtag, err)
				}
				if err := ftx.Commit(); err != nil {
					t.Fatalf("%s: post-recovery commit: %v", mtag, err)
				}
				rs.Close()
				re3.Close()
				doubles++
			}
		}
		for s := 1; s < len(rvecs); s++ {
			prev, cur := rvecs[s-1], rvecs[s]
			adv, multi := -1, false
			for i := 0; i < shards; i++ {
				if cur[i] != prev[i] {
					if adv != -1 {
						multi = true
					}
					adv = i
				}
			}
			if adv == -1 {
				continue
			}
			if multi || s == 1 {
				examine2(cur, fmt.Sprintf("rseg %d boundary", s))
				continue
			}
			span := cur[adv] - prev[adv]
			points := []int{prev[adv] + 1, cur[adv]}
			if span <= sampleCap {
				points = points[:0]
				for p := prev[adv] + 1; p <= cur[adv]; p++ {
					points = append(points, p)
				}
			} else {
				for len(points) < sampleCap {
					points = append(points, prev[adv]+1+rng.Intn(span))
				}
			}
			for _, p := range points {
				c := append([]int(nil), prev...)
				c[adv] = p
				examine2(c, fmt.Sprintf("rseg %d pool %d point %d/%d", s, adv, p, cur[adv]))
			}
		}
	}
	if doubles == 0 {
		t.Fatal("no double-crash cuts examined")
	}
	t.Logf("examined %d double-crash cuts over %d first-crash cuts (commit point at boundary %d)", doubles, len(outers), flip)
	ss.Close()
	st.Close()
}

func TestTxnRecoveryDoubleCrash(t *testing.T) { txnRecoveryDoubleCrashMatrix(t, pmem.TSO, false) }
func TestTxnRecoveryDoubleCrashNonTSO(t *testing.T) {
	txnRecoveryDoubleCrashMatrix(t, pmem.NonTSO, false)
}

// TestTxnFirstCommitAfterReopenDoubleCrash: a store that was closed and
// reopened without ever committing still has no redo logs; its first commit
// creates its home shard's and survives the double-crash matrix like any other.
func TestTxnFirstCommitAfterReopenDoubleCrash(t *testing.T) {
	txnRecoveryDoubleCrashMatrix(t, pmem.TSO, true)
}

// requireNoRedoLogs fails unless every shard's redo log is still to be
// created: no handle, nothing anchored at txnSlot.
func requireNoRedoLogs(t *testing.T, st *Store) {
	t.Helper()
	for i := range st.shards {
		th := st.shards[i].pool.NewThread()
		if off := st.shards[i].pool.Root(th, txnSlot); off != 0 || st.shards[i].gc.tl != nil {
			t.Fatalf("shard %d has a redo log (root %d) though it never committed", i, off)
		}
	}
}

// TestTxnCrashTwoRecordsInFlight crashes two commits in flight at once, each
// with its record in its own redo log. Commit A pauses right after its
// record's append; inside that commitStep firing, commit B — disjoint keys,
// on the same shards, so in key stripes A does not hold — runs to
// completion, writing its record into the other shard's log because A holds
// its home shard's; then A finishes. Every persist point of that combined
// tape, under every crash mode and both memory models, must recover to a
// state where each transaction is all-or-nothing (and committed once its
// record is durable), every key an earlier crash-free commit wrote holds its
// value, every redo log is truncated, and the invariants hold.
func TestTxnCrashTwoRecordsInFlight(t *testing.T) {
	for _, model := range []pmem.MemModel{pmem.TSO, pmem.NonTSO} {
		t.Run(model.String(), func(t *testing.T) { txnTwoRecordsCrashMatrix(t, model) })
	}
}

func txnTwoRecordsCrashMatrix(t *testing.T, model pmem.MemModel) {
	rng := rand.New(rand.NewSource(4242))
	const shards = 2
	st, err := Open(Options{
		Shards:    shards,
		ShardSize: 8 << 20,
		Mem:       pmem.Config{TrackCrashes: true, Model: model},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, sb := st.NewSession(), st.NewSession()

	// One key per shard each for A and B, in disjoint stripes, each
	// overwriting a value a crash-free commit wrote.
	keysA := spreadKeys(t, st, shards, shards)
	keysB := keysOffStripes(t, st, keysA, []int{0, 1})
	committed := map[uint64]uint64{}
	for i := uint64(0); i < 40; i++ {
		committed[1<<40+i] = i + 1
	}
	var effA, effB []txnEffect
	for i := range keysA {
		committed[keysA[i]], committed[keysB[i]] = 7, 7
		effA = append(effA, txnEffect{fixed: true, key: keysA[i], pre: u64p(7), post: u64p(100)})
		effB = append(effB, txnEffect{fixed: true, key: keysB[i], pre: u64p(7), post: u64p(200)})
	}
	pre := ss.Begin()
	for k, v := range committed {
		if err := pre.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := pre.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := range keysA {
		delete(committed, keysA[i])
		delete(committed, keysB[i])
	}
	commit := func(ss *Session, keys []uint64, val uint64) error {
		tx := ss.Begin()
		for _, k := range keys {
			if err := tx.Put(k, val); err != nil {
				return err
			}
		}
		return tx.Commit()
	}

	for i := 0; i < shards; i++ {
		st.Pool(i).StartCrashLog()
	}
	vectors := [][]int{logLens(st.Pools())}
	st.commitStep = func() {
		vectors = append(vectors, logLens(st.Pools()))
		if len(vectors) == 2 { // A's record just landed: run B beside it
			done := make(chan error, 1)
			go func() { done <- commit(sb, keysB, 200) }()
			waitErr(t, done, "commit B while commit A is paused")
		}
	}
	if err := commit(ss, keysA, 100); err != nil {
		t.Fatalf("commit A: %v", err)
	}
	st.commitStep = nil
	// The start; A's record; B's record, two applies and truncation; A's two
	// applies and truncation.
	if want := 1 + 1 + (1 + shards + 1) + (shards + 1); len(vectors) != want {
		t.Fatalf("%d step vectors, want %d", len(vectors), want)
	}
	// Segment s runs from vectors[s-1] to vectors[s]: A's record append is
	// segment 1, B's segment 2. A transaction is committed from the end of
	// its append's segment on, and invisible before that segment starts.
	const segA, segB = 1, 2

	cuts := 0
	examine := func(cut []int, tag string, wantA, wantB int) {
		t.Helper()
		for _, mode := range pmem.CrashModes {
			mtag := fmt.Sprintf("%s %v", tag, mode)
			re := reopenCut(t, mtag, st.Pools(), func(i int) int { return cut[i] }, mode, rng)
			for i := range re.shards {
				if tl := re.shards[i].gc.tl; tl != nil && tl.Len() != 0 {
					t.Fatalf("%s: shard %d redo log holds %d bytes after recovery", mtag, i, tl.Len())
				}
			}
			rs := re.NewSession()
			for k, v := range committed {
				if got, ok, err := rs.Get(k); err != nil || !ok || got != v {
					t.Fatalf("%s: committed key %d: got=%d ok=%v err=%v", mtag, k, got, ok, err)
				}
			}
			for _, c := range []struct {
				name    string
				effects []txnEffect
				want    int
			}{{"A", effA, wantA}, {"B", effB, wantB}} {
				if post := checkAtomic(t, rs, c.effects, mtag+" txn "+c.name); c.want >= 0 && post != (c.want == 1) {
					t.Fatalf("%s: txn %s post=%v, want %v", mtag, c.name, post, c.want == 1)
				}
			}
			if err := commit(rs, []uint64{keysA[0], keysB[1]}, 300); err != nil {
				t.Fatalf("%s: post-recovery commit: %v", mtag, err)
			}
			rs.Close()
			re.Close()
			cuts++
		}
	}
	// verdict is a transaction's expected state at point p of segment s:
	// 0 before its append, 1 once the append returned, -1 (either) inside it.
	verdict := func(seg, s, p, end int) int {
		switch {
		case s < seg:
			return 0
		case s > seg || p == end:
			return 1
		}
		return -1
	}
	examine(vectors[0], "cut v0", 0, 0)
	for s := 1; s < len(vectors); s++ {
		prev, cur := vectors[s-1], vectors[s]
		adv := advancing(t, s, prev, cur)
		if adv == -1 {
			t.Fatalf("segment %d persisted nothing (%v)", s, cur)
		}
		for point := prev[adv] + 1; point <= cur[adv]; point++ {
			cut := append([]int(nil), prev...)
			cut[adv] = point
			examine(cut, fmt.Sprintf("seg %d pool %d point %d/%d", s, adv, point, cur[adv]),
				verdict(segA, s, point, cur[adv]), verdict(segB, s, point, cur[adv]))
		}
	}
	t.Logf("examined %d cuts over %d step vectors", cuts, len(vectors))
	sb.Close()
	ss.Close()
	st.Close()
}
