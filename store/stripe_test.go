package store

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Coverage for stripe.acquire, the one way a key stripe is taken: a waiter
// yields to a holder that finishes within stripeWait and parks only behind
// one that does not, and overlapping committers on one shard still finish.

// TestStripeWaitYieldsToShortHold hands a taken stripe over at the waiter's
// first yield: with one P, the goroutine that releases it runs only when
// the waiter calls runtime.Gosched, so the first try fails and the second
// succeeds — one wait recorded, no park. Both modes.
func TestStripeWaitYieldsToShortHold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, excl := range []bool{true, false} {
		var st stripe
		// The host descheduling the waiter for longer than stripeWait
		// parks it behind a holder long gone; a few attempts ride that out.
		for attempt := 1; ; attempt++ {
			m := newStoreMetrics()
			st.Lock()
			go st.Unlock()
			st.acquire(excl, m)
			st.release(excl)
			if n := m.stripeWait.Snapshot().Count(); n != 1 {
				t.Fatalf("excl=%v: %d waits recorded, want 1", excl, n)
			}
			if m.stripeParks.Load() == 0 {
				break
			}
			if attempt == 5 {
				t.Fatalf("excl=%v: parked in %d attempts behind a holder released at the first yield", excl, attempt)
			}
		}
	}
}

// TestStripeWaitParksBehindLongHold pauses commit A at its commit point
// (the commitStep hook), holding its key's stripe far past stripeWait;
// commit B on the same key yields for the window, parks once, and takes
// the stripe when A lets go, so B's value is the final one.
func TestStripeWaitParksBehindLongHold(t *testing.T) {
	st, err := Open(Options{Shards: 2, ShardSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const key = 7

	paused, resume := make(chan struct{}), make(chan struct{})
	var steps atomic.Int32
	st.commitStep = func() {
		if steps.Add(1) == 1 { // A's record is durable
			close(paused)
			<-resume
		}
	}
	release := sync.OnceFunc(func() { close(resume) })
	defer release() // a failing check must not leave A, and Close, waiting

	commit := func(val uint64) <-chan error {
		ch := make(chan error, 1)
		go func() {
			ss := st.NewSession()
			defer ss.Close()
			tx := ss.Begin()
			if err := tx.Put(key, val); err != nil {
				ch <- err
				return
			}
			ch <- tx.Commit()
		}()
		return ch
	}
	aDone := commit(1)
	select {
	case <-paused:
	case err := <-aDone:
		t.Fatalf("commit A returned (%v) without reaching its commit point", err)
	}
	bDone := commit(2)
	for deadline := time.Now().Add(10 * time.Second); st.met.stripeParks.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("commit B did not park behind commit A's stripe")
		}
	}
	select {
	case err := <-bDone:
		t.Fatalf("commit B returned (%v) while commit A held its stripe", err)
	default:
	}

	release()
	waitErr(t, aDone, "commit A")
	waitErr(t, bDone, "commit B")
	if waits, parks := st.met.stripeWait.Snapshot().Count(), st.met.stripeParks.Load(); waits != 1 || parks != 1 {
		t.Fatalf("%d waits and %d parks recorded, want 1 and 1", waits, parks)
	}
	ss := st.NewSession()
	defer ss.Close()
	if got, ok, err := ss.Get(key); err != nil || !ok || got != 2 {
		t.Fatalf("key %d: got=%d ok=%v err=%v, want commit B's 2", key, got, ok, err)
	}
}

// TestStripeWaitersOnOneShardFinish runs four committers on one shard,
// each writing its own keys and one shared key in every commit, so their
// stripes overlap and commits wait on each other; under -race it is the
// detector's view of acquire. Every committer must finish, with its own
// keys at its last round's values and the store's invariants intact.
func TestStripeWaitersOnOneShardFinish(t *testing.T) {
	st, err := Open(Options{Shards: 1, ShardSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const committers, keysPer, shared = 4, 12, 1 << 40
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	val := func(w, r int) uint64 { return uint64(w)<<32 | uint64(r) }

	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for w := range committers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss := st.NewSession()
			defer ss.Close()
			for r := range rounds {
				tx := ss.Begin()
				for i := range keysPer {
					if err := tx.Put(uint64(w*keysPer+i), val(w, r)); err != nil {
						errs <- err
						return
					}
				}
				if err := tx.Put(shared, val(w, r)); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- fmt.Errorf("committer %d round %d: %v", w, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ss := st.NewSession()
	defer ss.Close()
	for w := range committers {
		for i := range keysPer {
			k := uint64(w*keysPer + i)
			if got, ok, err := ss.Get(k); err != nil || !ok || got != val(w, rounds-1) {
				t.Fatalf("key %d: got=%#x ok=%v err=%v, want %#x", k, got, ok, err, val(w, rounds-1))
			}
		}
	}
	if got, ok, err := ss.Get(shared); err != nil || !ok || uint32(got) != uint32(rounds-1) {
		t.Fatalf("shared key: got=%#x ok=%v err=%v, want some committer's last round", got, ok, err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d commits: %d stripe waits, %d parks", committers*rounds,
		st.met.stripeWait.Snapshot().Count(), st.met.stripeParks.Load())
}

// BenchmarkCommitContended runs 1, 2 and 4 committers, each committing
// four Puts to keys of its own on a 300 ns PM store — embed_txn's commit
// mix, whose committers collide only on stripes. It reports commits/s and
// parks per 1,000 commits, the count stripe.acquire's window keeps near 0
// (a waiter that blocks at once, as Lock does, parks on every collision).
func BenchmarkCommitContended(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("committers=%d", n), func(b *testing.B) {
			st, err := Open(Options{ShardSize: 32 << 20,
				Latency: LatencyOptions{Read: 300 * time.Nanosecond, Write: 300 * time.Nanosecond}})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			per := (b.N + n - 1) / n
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ss := st.NewSession()
					defer ss.Close()
					rng := rand.New(rand.NewPCG(uint64(w), 1))
					for r := range per {
						tx := ss.Begin()
						for range 4 {
							if err := tx.Put(uint64(rng.IntN(1<<14)*n+w), uint64(r)); err != nil {
								b.Error(err)
								return
							}
						}
						if err := tx.Commit(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			commits := float64(per * n)
			b.ReportMetric(commits/b.Elapsed().Seconds(), "commits/s")
			b.ReportMetric(float64(st.met.stripeParks.Load())*1000/commits, "parks/kcommit")
		})
	}
}
