package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// startLoneSite builds one started site on its own network.
func startLoneSite(t *testing.T) (*Site, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	ep, err := net.Endpoint(vtime.SiteID(1))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(ep, Options{})
	s.Start()
	return s, net
}

// TestStopDrainsNotifications is the regression test for the shutdown
// notification loss: notify() used to silently drop callbacks once
// s.stop closed, and the notifier's post-stop drain raced producers, so
// notifications enqueued around Stop were nondeterministically lost.
// Stop is now deterministic — intake closes only after the event loop
// (the sole producer) has exited, and the notifier drains in full — so
// across 1000 Stop cycles every accepted notification must be
// delivered: Enqueued == Delivered, Dropped == 0, and the user
// callbacks actually ran.
func TestStopDrainsNotifications(t *testing.T) {
	const cycles = 1000
	for c := 0; c < cycles; c++ {
		s, net := startLoneSite(t)
		ref, err := s.CreateObject(KindInt, "x", int64(0))
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Uint64
		if _, err := s.AttachView([]ObjRef{ref}, Optimistic, ViewFuncs{
			Update: func(SnapshotData) { ran.Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
		// Submit without waiting: some of these land their notifications
		// while Stop is already underway — the racy window of the old
		// implementation.
		for k := 0; k < 5; k++ {
			v := int64(k)
			s.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(ref, v) }})
		}
		s.Stop()
		st := s.Stats()
		if st.NotifyDropped != 0 {
			t.Fatalf("cycle %d: %d notifications dropped", c, st.NotifyDropped)
		}
		if st.NotifyEnqueued != st.NotifyDelivered {
			t.Fatalf("cycle %d: enqueued=%d delivered=%d; accepted notifications were lost in Stop",
				c, st.NotifyEnqueued, st.NotifyDelivered)
		}
		if ran.Load() == 0 && st.NotifyEnqueued > 0 {
			t.Fatalf("cycle %d: %d notifications enqueued but no user callback ran", c, st.NotifyEnqueued)
		}
		net.Close()
	}
}

// TestNotifierBackpressureNoDeadlock is the regression test for the
// notifier backpressure deadlock: with the old fixed 4096-slot channel,
// a full buffer blocked the event loop inside notify(), and a user
// callback that re-entered the site API (waiting on the event loop)
// deadlocked the site. The queue now grows instead of blocking, so a
// slow re-entrant callback must still make progress, and every
// notification the queue accepted must be delivered, none dropped.
func TestNotifierBackpressureNoDeadlock(t *testing.T) {
	s, net := startLoneSite(t)
	defer func() {
		s.Stop()
		net.Close()
	}()
	ref, err := s.CreateObject(KindInt, "x", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	var reentered atomic.Uint64
	if _, err := s.AttachView([]ObjRef{ref}, Optimistic, ViewFuncs{
		Update: func(SnapshotData) {
			time.Sleep(time.Millisecond) // slow consumer: the queue backs up
			// Re-enter the site API from the callback; this parked
			// forever when the loop was wedged in notify().
			if _, err := s.ReadCommitted(ref); err == nil {
				reentered.Add(1)
			}
		},
		// Commit notifications are not coalesced, so with the slow
		// Update above they back up in the queue.
		Commit: func() {},
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 60; k++ {
			v := int64(k)
			if res := s.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(ref, v) }}).Wait(); !res.Committed {
				t.Errorf("txn %d: %+v", k, res)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("site deadlocked: event loop blocked on the full notifier queue")
	}
	// Submissions outrun the 1ms-per-callback consumer; give the
	// notifier a moment to catch up.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && reentered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if reentered.Load() == 0 {
		t.Fatal("re-entrant callback never completed a site API call")
	}
	// Stop drains the notifier in full.
	s.Stop()
	st := s.Stats()
	if st.NotifyDropped != 0 || st.NotifyEnqueued != st.NotifyDelivered {
		t.Errorf("enqueued=%d delivered=%d dropped=%d; want every notification delivered, none dropped",
			st.NotifyEnqueued, st.NotifyDelivered, st.NotifyDropped)
	}
	t.Logf("%d notifications enqueued, %d delivered, %d dropped", st.NotifyEnqueued, st.NotifyDelivered, st.NotifyDropped)
}

// TestSubmitAfterStopSettlesHandle is the regression test for do()'s
// silent-drop path: posting work to a stopped site used to vanish,
// leaving the returned Handle waiting forever. Every handle-producing
// API must now settle the handle with ErrSiteStopped.
func TestSubmitAfterStopSettlesHandle(t *testing.T) {
	s, net := startLoneSite(t)
	defer net.Close()
	ref, err := s.CreateObject(KindInt, "x", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()

	resCh := make(chan Result, 1)
	go func() {
		resCh <- s.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(ref, 1) }}).Wait()
	}()
	select {
	case res := <-resCh:
		if !errors.Is(res.Err, ErrSiteStopped) {
			t.Fatalf("Submit after Stop: got %+v, want ErrSiteStopped", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit after Stop: handle never settled (silent drop)")
	}

	if res := s.Promote(ref).Wait(); !errors.Is(res.Err, ErrSiteStopped) {
		t.Fatalf("Promote after Stop: got %+v, want ErrSiteStopped", res)
	}
	if res := s.JoinObject(ref, 2, ref.ID()).Wait(); !errors.Is(res.Err, ErrSiteStopped) {
		t.Fatalf("JoinObject after Stop: got %+v, want ErrSiteStopped", res)
	}
}

// TestSubmitRacingStopSettles submits from several goroutines while Stop
// runs. A Submit that is still posting when Stop has already drained the
// call queue must not leave its call queued where nothing runs it or its
// drop hook: every returned Handle settles.
func TestSubmitRacingStopSettles(t *testing.T) {
	const cycles, submitters = 3000, 8
	for c := 0; c < cycles; c++ {
		s, net := startLoneSite(t)
		ref, err := s.CreateObject(KindInt, "x", int64(0))
		if err != nil {
			t.Fatal(err)
		}
		handles := make([][]*Handle, submitters)
		var (
			wg        sync.WaitGroup
			submitted atomic.Int64
		)
		for g := range handles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Keep posting until Stop has begun: the last Submit of
				// each submitter races it.
				for {
					select {
					case <-s.stop:
						return
					default:
					}
					v := int64(len(handles[g]))
					handles[g] = append(handles[g], s.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(ref, v) }}))
					submitted.Add(1)
				}
			}()
		}
		for submitted.Load() < 4*submitters {
			runtime.Gosched()
		}
		s.Stop()
		wg.Wait()
		deadline := time.After(10 * time.Second)
		for g, hs := range handles {
			for k, h := range hs {
				select {
				case <-h.Done():
				case <-deadline:
					t.Fatalf("cycle %d: submitter %d's Handle %d never settled", c, g, k)
				}
			}
		}
		net.Close()
	}
}

// TestStopWhileFlooded stops a site while a peer floods it with Writes.
// The event loop notices Stop only between batches, so this checks that a
// batch still ends under a saturated intake: Stop returns within a second,
// and the peer, the primary of the object it writes, settles every
// Handle.
func TestStopWhileFlooded(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "x", int64(0), 2, 1)
	if p, err := h.site(2).PrimarySite(refs[2]); err != nil || p != 2 {
		t.Fatalf("primary = %v (%v), want site 2", p, err)
	}

	const submitters = 4
	var (
		flooding atomic.Bool
		wg       sync.WaitGroup
	)
	flooding.Store(true)
	defer flooding.Store(false) // a failed check must not leave the flood running
	handles := make([][]*Handle, submitters)
	for g := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(0); flooding.Load(); k++ {
				handles[g] = append(handles[g], h.site(2).Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(refs[2], k) }}))
			}
		}()
	}
	h.eventually(10*time.Second, "site 1 applying the flood", func() bool {
		return h.site(1).Stats().UpdatesApplied > 500
	})

	stopped := make(chan struct{})
	go func() {
		h.site(1).Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop did not return within 1s under a flooded intake")
	}
	flooding.Store(false)
	wg.Wait()

	deadline := time.After(10 * time.Second)
	for g, hs := range handles {
		for k, hd := range hs {
			select {
			case res := <-hd.Done():
				if !res.Committed {
					t.Errorf("submitter %d txn %d: %+v", g, k, res)
				}
			case <-deadline:
				t.Fatalf("submitter %d's Handle %d of %d never settled", g, k, len(hs))
			}
		}
	}
}
