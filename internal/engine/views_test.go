package engine

import (
	"sync"
	"testing"
	"time"

	"decaf/internal/ids"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// recorder is a test view capturing notifications.
type recorder struct {
	mu      sync.Mutex
	updates []SnapshotData
	commits int
}

func (r *recorder) fns() ViewFuncs {
	return ViewFuncs{
		Update: func(d SnapshotData) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.updates = append(r.updates, d)
		},
		Commit: func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.commits++
		},
	}
}

func (r *recorder) snapshot() ([]SnapshotData, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SnapshotData, len(r.updates))
	copy(out, r.updates)
	return out, r.commits
}

func (r *recorder) lastValue(id ids.ObjectID) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.updates) == 0 {
		return nil, false
	}
	v, ok := r.updates[len(r.updates)-1].Values[id]
	return v, ok
}

func TestOptimisticViewSeesUncommittedState(t *testing.T) {
	// Optimistic views must be notified on local execution, before the
	// transaction commits remotely (paper §4.1).
	h := newHarness(t, 2, transport.Config{Latency: 20 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	rec := &recorder{}
	if _, err := h.site(2).AttachView([]ObjRef{refs[2]}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	hd := h.setInt2Async(2, refs[2], 9)
	<-hd.Applied()
	// The update notification should arrive well before the ~2 network
	// latencies the commit needs.
	h.eventually(time.Second, "optimistic update notification", func() bool {
		ups, _ := rec.snapshot()
		for _, u := range ups {
			if v, ok := u.Values[refs[2].ID()]; ok && v == int64(9) {
				return true
			}
		}
		return false
	})
	sawAt := time.Since(start)
	res := hd.Wait()
	if !res.Committed {
		t.Fatalf("txn: %+v", res)
	}
	if sawAt > 15*time.Millisecond {
		t.Fatalf("optimistic notification took %v; should beat the 40ms commit", sawAt)
	}
	// Eventually the commit notification follows (quiescence).
	h.eventually(time.Second, "optimistic commit notification", func() bool {
		_, commits := rec.snapshot()
		return commits >= 1
	})
}

// setInt2Async submits without waiting.
func (h *harness) setInt2Async(i int, ref ObjRef, v int64) *Handle {
	return h.site(i).Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(ref, v) }})
}

func TestPessimisticViewOnlyCommitted(t *testing.T) {
	h := newHarness(t, 2, transport.Config{Latency: 10 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	rec := &recorder{}
	if _, err := h.site(2).AttachView([]ObjRef{refs[2]}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	// Drain the initial attach notification.
	h.eventually(time.Second, "initial notification", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) >= 1
	})

	hd := h.setInt2Async(2, refs[2], 5)
	<-hd.Applied()
	// Immediately after local apply, the pessimistic view must NOT have
	// seen 5 (it is uncommitted).
	if v, ok := rec.lastValue(refs[2].ID()); ok && v == int64(5) {
		t.Fatal("pessimistic view saw uncommitted value")
	}
	if res := hd.Wait(); !res.Committed {
		t.Fatalf("txn: %+v", res)
	}
	h.eventually(time.Second, "committed notification", func() bool {
		v, ok := rec.lastValue(refs[2].ID())
		return ok && v == int64(5)
	})
	ups, _ := rec.snapshot()
	for _, u := range ups {
		if !u.Committed {
			t.Fatal("pessimistic notification marked uncommitted")
		}
	}
}

func TestPessimisticMonotonicLossless(t *testing.T) {
	// Every committed update is notified exactly once, in monotonic VT
	// order (paper §4.2 guarantees 1 and 2).
	h := newHarness(t, 2, transport.Config{Latency: 2 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{refs[1]}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	const n = 8
	for k := 1; k <= n; k++ {
		if res := h.setInt(2, refs[2], int64(k)); !res.Committed {
			t.Fatalf("write %d: %+v", k, res)
		}
	}
	h.eventually(3*time.Second, "all committed notifications", func() bool {
		ups, _ := rec.snapshot()
		if len(ups) == 0 {
			return false
		}
		last := ups[len(ups)-1]
		return last.Values[refs[1].ID()] == int64(n)
	})
	ups, _ := rec.snapshot()
	// Monotonic TS order.
	for i := 1; i < len(ups); i++ {
		if !ups[i-1].TS.Less(ups[i].TS) {
			t.Fatalf("non-monotonic notifications: %v then %v", ups[i-1].TS, ups[i].TS)
		}
	}
	// Lossless: with sequential commits, every value 1..n appears.
	seen := map[int64]bool{}
	for _, u := range ups {
		if v, ok := u.Values[refs[1].ID()].(int64); ok {
			seen[v] = true
		}
	}
	for k := int64(1); k <= n; k++ {
		if !seen[k] {
			t.Fatalf("pessimistic view lost committed value %d (saw %v)", k, seen)
		}
	}
}

func TestOptimisticViewRollbackRerun(t *testing.T) {
	// An optimistic view that saw state from an aborted transaction gets
	// a superseding notification with the reverted state (paper §4.1).
	// The primary's denial reaches the origin as the delegate's Outcome,
	// or, with delegation off, as a Confirm (abortTxn).
	t.Run("delegate", func(t *testing.T) { testOptimisticViewRollbackRerun(t, Options{MaxRetries: 1}) })
	t.Run("confirm", func(t *testing.T) {
		testOptimisticViewRollbackRerun(t, Options{MaxRetries: 1, DisableDelegation: true})
	})
}

func testOptimisticViewRollbackRerun(t *testing.T, opts Options) {
	h := newHarnessOpts(t, 2, transport.Config{}, opts)
	refs := h.joined(KindInt, "x", int64(1), 1, 2)
	s1, s2, ref1, ref2 := h.site(1), h.site(2), refs[1], refs[2]

	rec := &recorder{}
	if _, err := s2.AttachView([]ObjRef{ref2}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}

	// Rig a conflicting reservation at the primary so the write aborts.
	_ = s1.call(func() {
		ref1.o.res.Reserve(vtime.Interval{Lo: vtime.Zero, Hi: vtime.VT{Time: 1 << 40, Site: 1}}, vtime.VT{Time: 1 << 41, Site: 1})
	})

	res := s2.Submit(&Txn{Execute: func(tx *Tx) error {
		v, _ := tx.Read(ref2)
		return tx.Write(ref2, v.(int64)+100)
	}}).Wait()
	if res.Err == nil {
		t.Fatalf("expected exhausted retries, got %+v", res)
	}
	// The view must have seen 101 optimistically, then reverted to 1.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := rec.lastValue(ref2.ID()); ok && v == int64(1) {
			ups, _ := rec.snapshot()
			saw101 := false
			for _, u := range ups {
				if u.Values[ref2.ID()] == int64(101) {
					saw101 = true
				}
			}
			if !saw101 {
				t.Log("rollback happened before the optimistic notification was observed (lossy delivery); acceptable")
			}
			st := s2.Stats()
			if st.SnapshotReruns == 0 {
				t.Fatalf("no snapshot rerun recorded: %+v", st)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("view never reverted to committed state")
}

func TestViewChangedLists(t *testing.T) {
	// Update notifications list only the objects that changed
	// (paper §2.5).
	h := newHarness(t, 1, transport.Config{})
	a, _ := h.site(1).CreateObject(KindInt, "a", int64(0))
	b, _ := h.site(1).CreateObject(KindInt, "b", int64(0))

	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{a, b}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	h.eventually(time.Second, "initial", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) == 1
	})

	if res := h.setInt(1, a, 5); !res.Committed {
		t.Fatal("write failed")
	}
	h.eventually(time.Second, "second notification", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) >= 2
	})
	ups, _ := rec.snapshot()
	last := ups[len(ups)-1]
	if len(last.Changed) != 1 || last.Changed[0] != a.ID() {
		t.Fatalf("changed = %v, want [%v]", last.Changed, a.ID())
	}
}

func TestDetachStopsNotifications(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	a, _ := h.site(1).CreateObject(KindInt, "a", int64(0))
	rec := &recorder{}
	vh, err := h.site(1).AttachView([]ObjRef{a}, Optimistic, rec.fns())
	if err != nil {
		t.Fatal(err)
	}
	h.eventually(time.Second, "initial", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) == 1
	})
	vh.Detach()
	if res := h.setInt(1, a, 1); !res.Committed {
		t.Fatal("write failed")
	}
	time.Sleep(20 * time.Millisecond)
	ups, _ := rec.snapshot()
	if len(ups) != 1 {
		t.Fatalf("notifications after detach: %d", len(ups))
	}
}

func TestFig8OptimisticScenario(t *testing.T) {
	// Paper Fig. 8: view V attached to A and B; A committed at 100, B at
	// 80; transaction T at 110 updates A. The optimistic snapshot runs at
	// tS = 110 immediately; the commit notification follows when T
	// commits and B's interval (80,110] is confirmed write-free.
	h := newHarness(t, 2, transport.Config{Latency: 5 * time.Millisecond})
	refA := h.joined(KindInt, "A", int64(0), 1, 2)
	refB := h.joined(KindInt, "B", int64(0), 1, 2)

	// Establish committed baseline values.
	if res := h.setInt(2, refA[2], 100); !res.Committed {
		t.Fatal("baseline A")
	}
	if res := h.setInt(2, refB[2], 80); !res.Committed {
		t.Fatal("baseline B")
	}

	rec := &recorder{}
	if _, err := h.site(2).AttachView([]ObjRef{refA[2], refB[2]}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	h.eventually(time.Second, "initial", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) >= 1
	})
	_, commits0 := rec.snapshot()

	hd := h.setInt2Async(2, refA[2], 110)
	<-hd.Applied()
	// Update notification precedes commit.
	h.eventually(time.Second, "snapshot at T's VT", func() bool {
		ups, _ := rec.snapshot()
		last := ups[len(ups)-1]
		return last.Values[refA[2].ID()] == int64(110) && last.Values[refB[2].ID()] == int64(80)
	})
	if res := hd.Wait(); !res.Committed {
		t.Fatalf("T: %+v", res)
	}
	// Commit notification once RC (T commits) and RL for B are confirmed.
	h.eventually(time.Second, "commit notification", func() bool {
		_, commits := rec.snapshot()
		return commits > commits0
	})
}

func TestFig8PessimisticStraggler(t *testing.T) {
	// Pessimistic views must order a straggling committed update before a
	// later snapshot (paper §4.2): snapshots delivered in VT order even
	// when commits arrive out of order at the viewing site.
	h := newHarness(t, 3, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		// Site 3 -> site 1 is slow; site 2 -> site 1 is fast, so site 2's
		// later transaction tends to arrive at site 1 first.
		if from == 3 && to == 1 {
			return 25 * time.Millisecond
		}
		return 2 * time.Millisecond
	}})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{refs[1]}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}

	// Site 3 writes first (its message to site 1 dawdles), then site 2.
	h3 := h.setInt2Async(3, refs[3], 33)
	time.Sleep(5 * time.Millisecond)
	h2 := h.setInt2Async(2, refs[2], 22)
	r3, r2 := h3.Wait(), h2.Wait()
	if !r3.Committed || !r2.Committed {
		t.Fatalf("writes: %+v / %+v", r3, r2)
	}

	h.eventually(3*time.Second, "both committed updates notified", func() bool {
		ups, _ := rec.snapshot()
		saw22, saw33 := false, false
		for _, u := range ups {
			switch u.Values[refs[1].ID()] {
			case int64(22):
				saw22 = true
			case int64(33):
				saw33 = true
			}
		}
		return saw22 && saw33
	})
	ups, _ := rec.snapshot()
	for i := 1; i < len(ups); i++ {
		if !ups[i-1].TS.Less(ups[i].TS) {
			t.Fatalf("pessimistic notifications out of order: %v then %v", ups[i-1].TS, ups[i].TS)
		}
	}
}

// ---------------------------------------------------------------------------
// View work settles once per event-loop batch, after the batch's
// decisions have left (settleViews).
// ---------------------------------------------------------------------------

// sendProbe wraps an in-memory endpoint and calls onBatch, on the sending
// site's event loop, with every batch handed to SendBatch.
type sendProbe struct {
	transport.Endpoint
	onBatch func(msgs []wire.Message)
}

func (e *sendProbe) SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	e.onBatch(msgs)
	return e.Endpoint.SendBatch(to, sentAt, msgs)
}

// remoteWrite is a Write from origin 2 to ref's replica at site s, at VT
// vt. A delegated write asks the receiving primary to decide it.
func remoteWrite(s *Site, ref ObjRef, vt vtime.VT, op wire.Op, delegated bool) wire.Write {
	var graphVT vtime.VT
	_ = s.call(func() { graphVT = ref.o.graphVT })
	w := wire.Write{TxnVT: vt, Origin: 2, Updates: []wire.Update{{
		Target: ref.ID(), ReadVT: vt, GraphVT: graphVT, Op: op,
	}}}
	if delegated {
		w.NeedsConfirm = true
		w.Delegate = &wire.Delegation{Sites: []vtime.SiteID{2}}
	}
	return w
}

// deliverBatch hands ws to site 1 as one event-loop batch from site 2 and
// waits until the batch, its view work included, has settled.
func (h *harness) deliverBatch(ws ...wire.Write) {
	h.t.Helper()
	s := h.site(1)
	_ = s.call(func() {
		for _, w := range ws {
			s.handleMessage(2, w)
		}
	})
	h.eventually(3*time.Second, "site 1 quiescent", s.Quiescent)
}

func TestDelegateOutcomeLeavesBeforePessimisticSnapshot(t *testing.T) {
	// Site 2 is the primary of x and hosts a pessimistic view on it, so it
	// decides site 1's write as delegate (paper §3.1) and also has to
	// notify the view. The decision must reach the transport before the
	// batch's view work builds the snapshot: nothing the origin waits for
	// depends on that snapshot.
	type sent struct {
		vt          vtime.VT
		notifiedTo  vtime.VT // the view's lastNotifiedVT at send time
		snapshotted bool     // a snapshot at vt existed at send time
	}
	var (
		mu    sync.Mutex
		sends []sent
		view  *ViewHandle
	)
	probe := func(msgs []wire.Message) {
		mu.Lock()
		defer mu.Unlock()
		if view == nil {
			return
		}
		for _, m := range msgs {
			o, ok := m.(wire.Outcome)
			if !ok || !o.Committed {
				continue
			}
			rec := sent{vt: o.TxnVT, notifiedTo: view.p.lastNotifiedVT}
			for _, sn := range view.p.snaps {
				rec.snapshotted = rec.snapshotted || sn.ts == o.TxnVT
			}
			sends = append(sends, rec)
		}
	}
	h := &harness{t: t, net: transport.NewNetwork(transport.Config{}), sites: map[vtime.SiteID]*Site{}}
	for id := vtime.SiteID(1); id <= 2; id++ {
		var ep transport.Endpoint
		ep, _ = h.net.Endpoint(id)
		if id == 2 {
			ep = &sendProbe{Endpoint: ep, onBatch: probe}
		}
		h.sites[id] = NewSite(ep, Options{})
		h.sites[id].Start()
	}
	t.Cleanup(func() {
		h.site(1).Stop()
		h.site(2).Stop()
		h.net.Close()
	})
	refs := h.joined(KindInt, "x", int64(0), 2, 1)

	rec := &recorder{}
	vh, err := h.site(2).AttachView([]ObjRef{refs[2]}, Pessimistic, rec.fns())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	view = vh
	mu.Unlock()

	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(refs[1], int64(7)) }}).Wait()
	if !res.Committed {
		t.Fatalf("write: %+v", res)
	}
	h.eventually(3*time.Second, "the pessimistic notification", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) == 2 && ups[1].TS == res.VT
	})
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, s := range sends {
		if s.vt != res.VT {
			continue
		}
		found = true
		if s.snapshotted || res.VT.LessEq(s.notifiedTo) {
			t.Fatalf("the delegate's Outcome for %s left after the view's snapshot was built (snapshot pending %v, notified up to %s)",
				res.VT, s.snapshotted, s.notifiedTo)
		}
	}
	if !found {
		t.Fatalf("no Outcome for %s passed SendBatch at the delegate", res.VT)
	}
}

func TestPessimisticBatchSettlesInVTOrder(t *testing.T) {
	// Two remote writes on x commit at its primary in one batch, the later
	// VT first. Settling them in arrival order would check b's snapshot
	// while a is already committed inside (prev, b): a permanent local
	// denial, which holds nothing, so b would be delivered and a then fall
	// below the watermark, never notified. In VT order each is notified
	// once, a before b (paper §4.2 guarantees 1 and 2).
	h := newHarness(t, 2, transport.Config{})
	x := h.joined(KindInt, "x", int64(0), 1, 2)[1]
	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{x}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	a := vtime.VT{Time: 1 << 20, Site: 2}
	b := vtime.VT{Time: 1<<20 + 1, Site: 2}
	h.deliverBatch(
		remoteWrite(h.site(1), x, b, wire.OpSet{Value: int64(22)}, true),
		remoteWrite(h.site(1), x, a, wire.OpSet{Value: int64(11)}, true),
	)

	ups, _ := rec.snapshot()
	if len(ups) != 3 {
		t.Fatalf("pessimistic view heard %d notifications after the attach, want 2 (one per commit): %+v", len(ups)-1, ups)
	}
	for i, want := range []struct {
		ts vtime.VT
		v  int64
	}{{a, 11}, {b, 22}} {
		u := ups[i+1]
		if u.TS != want.ts || u.Values[x.ID()] != want.v {
			t.Fatalf("notification %d = %s:%v, want %s:%d", i+1, u.TS, u.Values[x.ID()], want.ts, want.v)
		}
	}
}

func TestRemoteAppliesCoalesceIntoOneOptimisticBuild(t *testing.T) {
	// k remote updates applied in one batch leave the optimistic view one
	// snapshot to build, of the newest state (paper §4.1: optimistic
	// views are lossy). The event loop applies and finishes each write in
	// turn, so a build per apply would show the view k states.
	h := newHarnessOpts(t, 2, transport.Config{}, Options{})
	x := h.joined(KindInt, "x", int64(0), 1, 2)[1]
	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{x}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	h.deliverBatch()
	before := h.site(1).Stats().OptNotifications

	const k = 5
	var writes []wire.Write
	for i := 1; i <= k; i++ {
		writes = append(writes, remoteWrite(h.site(1), x, vtime.VT{Time: 1<<20 + uint64(i), Site: 2}, wire.OpSet{Value: int64(i)}, false))
	}
	h.deliverBatch(writes...)

	if n := h.site(1).Stats().OptNotifications - before; n != 1 {
		t.Fatalf("%d remote applies in one batch built %d optimistic snapshots, want 1", k, n)
	}
	if v, _ := rec.lastValue(x.ID()); v != int64(k) {
		t.Fatalf("optimistic view shows %v, want the newest value %d", v, k)
	}
}

func TestLostUpdateCountedWhereApplied(t *testing.T) {
	// A straggler — a remote write below a newer version of the same
	// object — is a lost update (paper §5.1.2), counted once when it is
	// applied. A redundant trigger (the same write delivered again) is
	// not, nor is a write below the view's snapshot to an object with
	// nothing newer (the next snapshot shows it), and a newer write
	// settled in the same batch does not hide one.
	h := newHarness(t, 2, transport.Config{})
	x := h.joined(KindInt, "x", int64(0), 1, 2)[1]
	y := h.joined(KindInt, "y", int64(0), 1, 2)[1]
	if _, err := h.site(1).AttachView([]ObjRef{x, y}, Optimistic, (&recorder{}).fns()); err != nil {
		t.Fatal(err)
	}
	at := func(tick uint64, v int64) wire.Write {
		return remoteWrite(h.site(1), x, vtime.VT{Time: 1<<20 + tick, Site: 2}, wire.OpSet{Value: v}, false)
	}
	lost := func(ws ...wire.Write) uint64 {
		before := h.site(1).Stats().LostUpdates
		h.deliverBatch(ws...)
		return h.site(1).Stats().LostUpdates - before
	}
	newer, straggler := at(20, 2), at(10, 1)
	if n := lost(newer); n != 0 {
		t.Fatalf("a write above the view's snapshot counted %d lost updates", n)
	}
	if n := lost(straggler); n != 1 {
		t.Fatalf("a straggler counted %d lost updates, want 1", n)
	}
	if n := lost(remoteWrite(h.site(1), y, vtime.VT{Time: 1<<20 + 5, Site: 2}, wire.OpSet{Value: int64(5)}, false)); n != 0 {
		t.Fatalf("a write below the view's snapshot to an object with nothing newer counted %d lost updates", n)
	}
	for _, dup := range []wire.Write{straggler, newer} {
		if n := lost(dup); n != 0 {
			t.Fatalf("a redundant trigger (duplicate of %s) counted %d lost updates", dup.TxnVT, n)
		}
	}
	// The view shows tick 20. A straggler at 15 settled together with a
	// newer write at 40 is still lost, though the batch's one rebuild
	// changes what the view shows.
	if n := lost(at(40, 4), at(15, 3)); n != 1 {
		t.Fatalf("a straggler settled with a newer write counted %d lost updates, want 1", n)
	}
}

func TestOptimisticViewSeesMergeBelowNewestVersion(t *testing.T) {
	// An increment applied below an object's newest version changes the
	// value at that version without adding a version there: the state
	// token is unchanged, the value is not, and the optimistic view must
	// be told.
	h := newHarness(t, 2, transport.Config{})
	x := h.joined(KindInt, "x", int64(0), 1, 2)[1]
	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{x}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	h.deliverBatch(remoteWrite(h.site(1), x, vtime.VT{Time: 1<<20 + 2, Site: 2}, wire.OpAdd{Delta: int64(10)}, false))
	h.deliverBatch(remoteWrite(h.site(1), x, vtime.VT{Time: 1<<20 + 1, Site: 2}, wire.OpAdd{Delta: int64(5)}, false))
	if v, _ := rec.lastValue(x.ID()); v != int64(15) {
		t.Fatalf("optimistic view shows %v after both increments, want 15", v)
	}
}
