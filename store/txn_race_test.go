package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestTxnCommitRaceChurn races concurrent transactional commits from
// several sessions against plain writers, point readers, scans and forced
// value-log compaction; it earns its keep under -race (CI runs the store
// package with the detector on). Each committer owns a disjoint fixed-key
// range plus prefix-colliding byte keys, so the end state is exact, and
// all of them also write one shared fixed key and one byte key each under
// one shared prefix on one shard, so commits wait on each other's
// exclusive stripes and meet in one bucket, which a commit takes all of
// its shard's stripes to rewrite. The key-stripe choreography — committers
// exclusive in ascending (shard, stripe) order, each in the first free
// redo log, plain writers shared, GC and readers outside — is what the
// detector is pointed at.
func TestTxnCommitRaceChurn(t *testing.T) {
	st, err := Open(Options{Shards: 4, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const committers = 3
	const keysPer = 24
	rounds := 10
	if testing.Short() {
		rounds = 4
	}
	fkey := func(w, i int) uint64 { return uint64(w*100000 + i) }
	bkey := func(w, i int) []byte {
		return []byte(fmt.Sprintf("txn-w%d-%04d-%c", w, i/3, 'a'+i%3))
	}
	bval := func(w, i, r int) []byte {
		return bytes.Repeat([]byte{byte(w*37 + i + r)}, 100+(w*keysPer+i)%150)
	}
	const sharedKey = 1 << 50
	sharedVal := func(w, r int) uint64 { return uint64(w)<<32 | uint64(r) }
	sharedKV := make([][]byte, committers) // one prefix, one shard
	for w, n := 0, 0; w < committers; n++ {
		k := []byte(fmt.Sprintf("txnshare-%d-%d", w, n))
		if w == 0 || st.ShardForKey(k) == st.ShardForKey(sharedKV[0]) {
			sharedKV[w] = k
			w++
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, committers+3)
	stop := make(chan struct{})

	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ss := st.NewSession()
			defer ss.Close()
			for r := 0; r < rounds; r++ {
				tx := ss.Begin()
				for i := 0; i < keysPer; i++ {
					if err := tx.Put(fkey(w, i), uint64(r*1000+i)); err != nil {
						errs <- fmt.Errorf("committer %d: %v", w, err)
						return
					}
					if err := tx.PutKV(bkey(w, i), bval(w, i, r)); err != nil {
						errs <- fmt.Errorf("committer %d: %v", w, err)
						return
					}
				}
				if err := tx.Put(sharedKey, sharedVal(w, r)); err != nil {
					errs <- err
					return
				}
				if err := tx.PutKV(sharedKV[w], bval(w, keysPer, r)); err != nil {
					errs <- err
					return
				}
				// A delete inside every other round exercises the remove
				// paths under commit's exclusive locks.
				if r%2 == 1 {
					if err := tx.Delete(fkey(w, 0)); err != nil {
						errs <- err
						return
					}
					if err := tx.DeleteKV(bkey(w, 0)); err != nil {
						errs <- err
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("committer %d round %d: %v", w, r, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	// Plain writer on its own key range: shared stripes against the
	// committers' exclusive holds, and exclusive ones for its byte keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ss := st.NewSession()
		defer ss.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if err := ss.Put(uint64(900000+i%500), uint64(i)); err != nil {
				errs <- fmt.Errorf("plain writer: %v", err)
				return
			}
			if i%7 == 0 {
				if err := ss.PutKV([]byte(fmt.Sprintf("plain-%03d", i%200)), []byte("pv")); err != nil {
					errs <- fmt.Errorf("plain writer kv: %v", err)
					return
				}
			}
		}
	}()
	// Compactor forces GC passes throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ss := st.NewSession()
		defer ss.Close()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			if _, err := ss.CompactValues(); err != nil {
				errs <- fmt.Errorf("compactor: %v", err)
				return
			}
		}
	}()
	// Reader: point gets, scans, byte-key gets. Values are
	// single-byte-repeated so torn reads are detectable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ss := st.NewSession()
		defer ss.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			w, k := i%committers, i%keysPer
			if _, _, err := ss.Get(fkey(w, k)); err != nil {
				errs <- fmt.Errorf("reader get: %v", err)
				return
			}
			v, ok, err := ss.GetKV(bkey(w, k), nil)
			if err != nil {
				errs <- fmt.Errorf("reader getkv: %v", err)
				return
			}
			if ok {
				for _, b := range v[1:] {
					if b != v[0] {
						errs <- errors.New("reader: torn byte-key value")
						return
					}
				}
			}
			if i%64 == 0 {
				if _, err := ss.ScanLimit(0, ^uint64(0), 200); err != nil {
					errs <- fmt.Errorf("reader scan: %v", err)
					return
				}
			}
		}
	}()

	for w := 0; w < committers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// Exact end state per committer: last round's values, modulo the
	// final round's parity deletes.
	ss := st.NewSession()
	defer ss.Close()
	lastDel := (rounds-1)%2 == 1
	for w := 0; w < committers; w++ {
		for i := 0; i < keysPer; i++ {
			wantGone := lastDel && i == 0
			v, ok, err := ss.Get(fkey(w, i))
			if err != nil {
				t.Fatal(err)
			}
			if wantGone {
				if ok {
					t.Fatalf("committer %d key %d: survived its final delete", w, i)
				}
			} else if !ok || v != uint64((rounds-1)*1000+i) {
				t.Fatalf("committer %d key %d: v=%d ok=%v", w, i, v, ok)
			}
			bv2, ok, err := ss.GetKV(bkey(w, i), nil)
			if err != nil {
				t.Fatal(err)
			}
			if wantGone {
				if ok {
					t.Fatalf("committer %d byte key %d: survived its final delete", w, i)
				}
			} else if !ok || !bytes.Equal(bv2, bval(w, i, rounds-1)) {
				t.Fatalf("committer %d byte key %d: ok=%v len=%d", w, i, ok, len(bv2))
			}
		}
	}
	// The shared keys hold what one committer's final round wrote: the
	// fixed key any committer's, the bucket every committer's own entry.
	v, ok, err := ss.Get(sharedKey)
	if err != nil || !ok || v>>32 >= committers || v&(1<<32-1) != uint64(rounds-1) {
		t.Fatalf("shared key: v=%#x ok=%v err=%v, want one committer's final round", v, ok, err)
	}
	for w, k := range sharedKV {
		if got, ok, err := ss.GetKV(k, nil); err != nil || !ok || !bytes.Equal(got, bval(w, keysPer, rounds-1)) {
			t.Fatalf("committer %d shared-prefix key: ok=%v err=%v len=%d", w, ok, err, len(got))
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
