package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestKVGCRaceChurn races byte-key writers against value-log GC and
// concurrent readers; it earns its keep under -race (CI runs the store
// package with the detector on). Writers churn overwrite-heavy,
// prefix-colliding keys — every overwrite garbages the old bucket record,
// and the bucket install's ReplaceIf must detect GC relocating the word
// under it and retry — while a dedicated goroutine forces compaction
// passes and readers Get/Scan through their grace sections the whole
// time. The test asserts the end state exactly; the race detector
// asserts everything else.
func TestKVGCRaceChurn(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const writers = 3
	const perW = 60 // keys per writer: 20 collision families of 3
	rounds := 12
	if testing.Short() {
		rounds = 5
	}
	key := func(w, i int) []byte {
		return []byte(fmt.Sprintf("race-w%d-%04d-%c", w, i/3, 'a'+i%3))
	}
	val := func(w, i, round int) []byte {
		return bytes.Repeat([]byte{byte(w*31 + i + round)}, 300+(w*perW+i)%200)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ss := st.NewSession()
			defer ss.Close()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perW; i++ {
					if err := ss.PutKV(key(w, i), val(w, i, r)); err != nil {
						errs <- fmt.Errorf("writer %d round %d: %v", w, r, err)
						return
					}
					// Periodic delete+reinsert exercises the remove path
					// and bucket-drop/recreate against GC's Live checks.
					if i%17 == 0 {
						if _, err := ss.DeleteKV(key(w, i)); err != nil {
							errs <- fmt.Errorf("writer %d delete: %v", w, err)
							return
						}
						if err := ss.PutKV(key(w, i), val(w, i, r)); err != nil {
							errs <- fmt.Errorf("writer %d reinsert: %v", w, err)
							return
						}
					}
				}
			}
			errs <- nil
		}(w)
	}
	// Compactor: force GC passes for the whole churn window.
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
	// Reader: point reads and scans must never see an error or a torn
	// value (values are single-byte-repeated, so tearing is detectable).
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
			k := key(i%writers, i%perW)
			v, ok, err := ss.GetKV(k, nil)
			if err != nil {
				errs <- fmt.Errorf("reader get %q: %v", k, err)
				return
			}
			if ok {
				for _, b := range v[1:] {
					if b != v[0] {
						errs <- fmt.Errorf("reader: torn value under %q", k)
						return
					}
				}
			}
			if i%64 == 0 {
				if err := ss.ScanKV(nil, nil, 100, func(k, v []byte) bool { return true }); err != nil {
					errs <- fmt.Errorf("reader scan: %v", err)
					return
				}
			}
		}
	}()

	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if st.ValueStats().GCPasses == 0 {
		t.Fatal("no GC pass ran during the churn; the race window never opened")
	}
	// Exact end state: the last round's values, for every writer's keys.
	ss := st.NewSession()
	defer ss.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i++ {
			want := val(w, i, rounds-1)
			got, ok, err := ss.GetKV(key(w, i), nil)
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("end state %q: ok=%v err=%v", key(w, i), ok, err)
			}
		}
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
