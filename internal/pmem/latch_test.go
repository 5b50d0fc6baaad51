package pmem

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// latchWord returns a thread and the offset of a fresh latch word.
func latchWord(t *testing.T) (*Pool, *Thread, int64) {
	t.Helper()
	p := newTestPool(t, Config{})
	off, err := p.Alloc(WordSize, WordSize)
	if err != nil {
		t.Fatal(err)
	}
	return p, p.NewThread(), off
}

// stillWaiting reports whether done stays open for a while: long enough,
// on any host, for a waiter that was not excluded to have got through.
func stillWaiting(done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	case <-time.After(20 * time.Millisecond):
		return true
	}
}

// TestLatchExcludes holds each kind of latch and checks which kind another
// thread can take meanwhile: an exclusive holder shuts out both kinds, a
// shared holder shuts out only the exclusive one. A shut-out waiter gets
// the latch once the holder lets go.
func TestLatchExcludes(t *testing.T) {
	for _, c := range []struct {
		name             string
		hold, release    func(*Thread, int64)
		wait, waitUnlock func(*Thread, int64)
	}{
		{"exclusive/exclusive", (*Thread).Latch, (*Thread).Unlatch, (*Thread).Latch, (*Thread).Unlatch},
		{"exclusive/shared", (*Thread).Latch, (*Thread).Unlatch, (*Thread).RLatch, (*Thread).RUnlatch},
		{"shared/exclusive", (*Thread).RLatch, (*Thread).RUnlatch, (*Thread).Latch, (*Thread).Unlatch},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, th, off := latchWord(t)
			c.hold(th, off)
			done := make(chan struct{})
			go func() {
				wth := p.NewThread()
				c.wait(wth, off)
				close(done)
				c.waitUnlock(wth, off)
			}()
			if !stillWaiting(done) {
				t.Fatal("waiter took the latch while it was held")
			}
			c.release(th, off)
			<-done
		})
	}
}

// TestLatchSharedAdmitsReaders takes the shared latch from several threads
// at once; each holds it until all of them have it, so none may wait for
// another to let go. The word is free afterwards.
func TestLatchSharedAdmitsReaders(t *testing.T) {
	p, _, off := latchWord(t)
	const readers = 4
	var all sync.WaitGroup
	all.Add(readers)
	var done sync.WaitGroup
	for range readers {
		done.Add(1)
		go func() {
			defer done.Done()
			th := p.NewThread()
			th.RLatch(off)
			all.Done()
			all.Wait()
			th.RUnlatch(off)
		}()
	}
	done.Wait()
	if v := p.NewThread().LoadVolatile(off); v != 0 {
		t.Fatalf("latch word %d after every reader left, want 0", v)
	}
}

// TestLatchCounts increments a plain counter under the exclusive latch from
// several threads; under -race this is also the detector's view of the
// latch as a lock.
func TestLatchCounts(t *testing.T) {
	p, _, off := latchWord(t)
	const workers, rounds = 4, 2000
	count := 0
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := p.NewThread()
			for range rounds {
				th.Latch(off)
				count++
				th.Unlatch(off)
			}
		}()
	}
	wg.Wait()
	if count != workers*rounds {
		t.Fatalf("count %d, want %d", count, workers*rounds)
	}
}

// TestLatchWaitYieldsToHolder: with one P, the goroutine that releases the
// latch runs only when the waiter gives up the processor, so the waiter
// gets the latch only because its backoff yields. Each waiting kind, behind
// each holding kind it must wait for.
func TestLatchWaitYieldsToHolder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name          string
		hold, release func(*Thread, int64)
		wait          func(*Thread, int64)
	}{
		{"exclusive/exclusive", (*Thread).Latch, (*Thread).Unlatch, (*Thread).Latch},
		{"exclusive/shared", (*Thread).Latch, (*Thread).Unlatch, (*Thread).RLatch},
		{"shared/exclusive", (*Thread).RLatch, (*Thread).RUnlatch, (*Thread).Latch},
	} {
		p, th, off := latchWord(t)
		hth := p.NewThread()
		c.hold(hth, off)
		go c.release(hth, off)
		c.wait(th, off)
		if v := th.LoadVolatile(off); v == 0 {
			t.Fatalf("%s: latch word free after the waiter took it", c.name)
		}
	}
}
