package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"decaf/internal/transport"
)

// TestEventLoopStress drives N sites x M submitting goroutines over both
// disjoint objects (each goroutine owns one, so batches mix Writes of
// independent transactions) and one shared hot object (read-modify-writes
// that conflict, abort, and retry). It asserts convergence of every
// replica and the counter identities from the observability subsystem:
//
//	Submitted      == Commits + ProgrammedAborts + abandoned
//	ConflictAborts == Retries + abandoned
//
// Run it with -race: submitters, the event loops and the notifiers all
// run at once.
func TestEventLoopStress(t *testing.T) {
	h, observers := newObsHarness(t, 3, transport.Config{}, Options{})

	const (
		nDisjoint = 6
		workers   = 3
		perWorker = 20
	)
	sites := []int{1, 2, 3}

	disjoint := make([]map[int]ObjRef, nDisjoint)
	for k := 0; k < nDisjoint; k++ {
		disjoint[k] = h.joined(KindInt, fmt.Sprintf("d%d", k), int64(0), 1, 2, 3)
	}
	shared := h.joined(KindInt, "hot", int64(0), 1, 2, 3)

	var (
		mu        sync.Mutex
		abandoned = map[int]uint64{}
	)
	var wg sync.WaitGroup
	for _, i := range sites {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				own := disjoint[(i*workers+w)%nDisjoint][i]
				hot := shared[i]
				for n := 0; n < perWorker; n++ {
					var txn *Txn
					if n%4 == 3 {
						txn = &Txn{Name: "rmw", Execute: func(tx *Tx) error {
							v, err := tx.Read(hot)
							if err != nil {
								return err
							}
							c, _ := v.(int64)
							return tx.Write(hot, c+1)
						}}
					} else {
						v := int64(i*1000 + w*100 + n)
						txn = &Txn{Name: "set", Execute: func(tx *Tx) error {
							return tx.Write(own, v)
						}}
					}
					res := h.site(i).Submit(txn).Wait()
					switch {
					case res.Committed:
					case errors.Is(res.Err, ErrTooManyRetries):
						mu.Lock()
						abandoned[i]++
						mu.Unlock()
					default:
						t.Errorf("site %d worker %d txn %d: %+v", i, w, n, res)
						return
					}
				}
			}(i, w)
		}
	}
	wg.Wait()

	h.eventually(10*time.Second, "all sites quiescent", func() bool {
		for _, i := range sites {
			if !h.noPendingTxns(i) {
				return false
			}
		}
		return true
	})
	h.eventually(10*time.Second, "replicas converged", func() bool {
		for k := 0; k < nDisjoint; k++ {
			v1 := h.committedInt(1, disjoint[k][1])
			if v1 != h.committedInt(2, disjoint[k][2]) || v1 != h.committedInt(3, disjoint[k][3]) {
				return false
			}
		}
		s1 := h.committedInt(1, shared[1])
		return s1 == h.committedInt(2, shared[2]) && s1 == h.committedInt(3, shared[3])
	})

	for _, i := range sites {
		st := h.site(i).Stats()
		if st.Submitted != st.Commits+st.ProgrammedAborts+abandoned[i] {
			t.Errorf("site %d: Submitted=%d != Commits=%d + ProgrammedAborts=%d + abandoned=%d",
				i, st.Submitted, st.Commits, st.ProgrammedAborts, abandoned[i])
		}
		if st.ConflictAborts != st.Retries+abandoned[i] {
			t.Errorf("site %d: ConflictAborts=%d != Retries=%d + abandoned=%d",
				i, st.ConflictAborts, st.Retries, abandoned[i])
		}
		if v, ok := observers[i].Metrics().Value("decaf_engine_batches_total"); !ok || v == 0 {
			t.Errorf("site %d: no event-loop batches recorded", i)
		}
	}
}

// TestBatchCoalescingUnderLatency checks that the batched loop actually
// coalesces outbound messages: with several transactions submitted
// before the first round trip completes, at least some sends must
// piggyback on a shared batch flush.
func TestBatchCoalescingUnderLatency(t *testing.T) {
	h, observers := newObsHarness(t, 2, transport.Config{Latency: 2 * time.Millisecond}, Options{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	const txns = 40
	handles := make([]*Handle, 0, txns)
	for n := 0; n < txns; n++ {
		v := int64(n)
		ref := refs[2]
		handles = append(handles, h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
			return tx.Write(ref, v)
		}}))
	}
	for _, hd := range handles {
		if res := hd.Wait(); !res.Committed {
			t.Fatalf("txn failed: %+v", res)
		}
	}
	coalesced := 0.0
	for _, i := range []int{1, 2} {
		if v, ok := observers[i].Metrics().Value("decaf_engine_coalesced_sends_total"); ok {
			coalesced += v
		}
	}
	if coalesced == 0 {
		t.Error("no outbound messages were coalesced across 40 concurrent txns")
	}
}

// TestRetryFloodDoesNotWedgeLoop re-executes a transaction while its
// site's calls queue is full. Site 2's read-modify-write of a shared Int
// loses to site 3's, and the primary's denial reaches site 2 while site
// 2 is held inside a transaction and a flood of submissions fills its
// queue. A retry is work the loop itself originates: had it been posted
// into that full queue, the loop would block on itself for good.
func TestRetryFloodDoesNotWedgeLoop(t *testing.T) {
	const flooders, perFlooder = 4, 500
	h := newHarness(t, 3, transport.Config{})
	hot := h.joined(KindInt, "hot", int64(0), 1, 2, 3)
	own, err := h.site(2).CreateObject(KindInt, "own", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	// hold runs fn inside a transaction at site i, holding the site's
	// loop there until release.
	hold := func(i int, fn func(tx *Tx) error) (*Handle, func()) {
		held, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		hd := h.site(i).Submit(&Txn{Name: "hold", Execute: func(tx *Tx) error {
			err := fn(tx)
			once.Do(func() {
				close(held)
				<-release
			})
			return err
		}})
		<-held
		return hd, func() { close(release) }
	}
	increment := func(ref ObjRef) func(tx *Tx) error {
		return func(tx *Tx) error {
			v, err := tx.Read(ref)
			if err != nil {
				return err
			}
			c, _ := v.(int64)
			return tx.Write(ref, c+1)
		}
	}
	noop := func(*Tx) error { return nil }
	settled := func(i int) func() bool { return h.site(i).Quiescent }

	// Site 2 reads 0 and is held before its write leaves; site 3 then
	// reads 0 too and commits first.
	loser, release2 := hold(2, increment(hot[2]))
	if res := h.site(3).Submit(&Txn{Execute: increment(hot[3])}).Wait(); !res.Committed {
		t.Fatalf("site 3's increment: %+v", res)
	}
	// Hold the primary, let site 2's write reach it, then hold site 2
	// and fill its queue.
	_, release1 := hold(1, noop)
	release2()
	h.eventually(5*time.Second, "site 2's write sent", settled(2))
	_, release2 = hold(2, noop)
	handles := make(chan *Handle, flooders*perFlooder)
	var wg sync.WaitGroup
	for range flooders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range perFlooder {
				handles <- h.site(2).Submit(&Txn{Name: "set", Execute: func(tx *Tx) error { return tx.Write(own, int64(n)) }})
			}
		}()
	}
	go func() {
		wg.Wait()
		close(handles)
	}()
	s2 := h.site(2)
	for len(s2.calls) < cap(s2.calls) {
		runtime.Gosched()
	}
	// Let every flooder block on the full queue, so each call the loop
	// takes is replaced at once.
	time.Sleep(20 * time.Millisecond)
	// The primary denies site 2's increment; its answer waits at site 2.
	release1()
	h.eventually(5*time.Second, "the primary's answer sent", settled(1))
	release2()

	deadline := time.After(30 * time.Second)
	wait := func(hd *Handle) {
		t.Helper()
		select {
		case res := <-hd.Done():
			if !res.Committed {
				t.Fatalf("txn failed: %+v", res)
			}
		case <-deadline:
			st := s2.Stats()
			t.Fatalf("site 2 wedged: %d submitted, %d committed, %d retries", st.Submitted, st.Commits, st.Retries)
		}
	}
	wait(loser)
	for hd := range handles {
		wait(hd)
	}
	if st := s2.Stats(); st.Retries == 0 {
		t.Fatal("site 2's increment never re-executed")
	}
	h.eventually(10*time.Second, "every replica at 2", func() bool {
		for i := 1; i <= 3; i++ {
			if h.committedInt(i, hot[i]) != 2 {
				return false
			}
		}
		return true
	})
}
