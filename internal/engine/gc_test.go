package engine

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"decaf/internal/history"
	"decaf/internal/ids"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Garbage-collection behaviour (paper §3: "Histories are garbage-collected
// as transactions commit").

func TestHistoriesStayBoundedUnderSustainedLoad(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	const writes = 200
	for k := 1; k <= writes; k++ {
		if res := h.setInt(2, refs[2], int64(k)); !res.Committed {
			t.Fatalf("write %d: %+v", k, res)
		}
	}
	// Let the trailing outcomes land.
	h.eventually(3*time.Second, "convergence", func() bool {
		return h.committedInt(1, refs[1]) == writes
	})

	for _, i := range []int{1, 2} {
		var histLen, resLen int
		_ = h.site(i).call(func() {
			histLen = refs[i].o.hist.Len()
			resLen = refs[i].o.res.Len()
		})
		if histLen > 8 {
			t.Errorf("site %d history grew to %d versions after %d committed writes", i, histLen, writes)
		}
		if resLen > 16 {
			t.Errorf("site %d reservations grew to %d", i, resLen)
		}
	}
}

// TestPrimaryGCWaitsForLaggingWriter pins the floor a primary prunes at.
// Site 1 is x's primary; x is replicated at sites 2 and 3. Site 3's
// read-modify-write A (0 -> 1 at 1001@s3) is confirmed and commits, which
// moves site 1's own floor past 1001. Site 2's clock lags: its
// read-modify-write Q (0 -> 1 at 51@s2) reaches the primary only now. Q
// and A both read the initial value, so Q must be denied: A's reservation
// (0, 1001] holds 51. Pruned at site 1's own floor, that reservation and
// every version below 1001 are gone, Q passes RL and NC, and one of the
// two increments is lost. Site 2 has announced no floor above 51, so the
// primary keeps both.
func TestPrimaryGCWaitsForLaggingWriter(t *testing.T) {
	e := newPCEnv(t)
	s, x := e.s, e.objs["x"]
	g := x.graph.Clone()
	peer3 := ids.ObjectID{Site: 3, Seq: x.id.Seq}
	g.AddNode(peer3, 3)
	if err := g.AddEdge(x.id, peer3); err != nil {
		t.Fatal(err)
	}
	if err := x.graphHist.Insert(vtime.VT{Time: 6, Site: 1}, g, history.Committed); err != nil {
		t.Fatal(err)
	}
	x.refreshGraph()
	deliver := func(from vtime.SiteID, at vtime.VT, m wire.Message) {
		s.beginBatch()
		s.handleEvent(transport.Event{Kind: transport.EventMessage, From: from, SentAt: at, Msg: m})
	}
	increment := func(origin vtime.SiteID, vt, floor vtime.VT) wire.Write {
		return wire.Write{TxnVT: vt, Origin: origin, Floor: floor, NeedsConfirm: true,
			Updates: []wire.Update{{Target: x.id, ReadVT: vtime.Zero, GraphVT: x.graphVT, Op: wire.OpSet{Value: int64(1)}}}}
	}

	a := vtime.VT{Time: 1001, Site: 3}
	deliver(3, a, increment(3, a, vtime.VT{Time: 1000, Site: 3}))
	if c := lastSent[wire.Confirm](e, 3); !c.OK {
		t.Fatalf("A denied: %s", c.Reason)
	}
	deliver(3, vtime.VT{Time: 1002, Site: 3}, wire.Outcome{TxnVT: a, Committed: true})
	if floor := s.combinedGCFloor(); !a.LessEq(floor) {
		t.Fatalf("site 1's own floor %s is not past A at %s", floor, a)
	}

	q := vtime.VT{Time: 51, Site: 2}
	deliver(2, q, increment(2, q, vtime.VT{Time: 50, Site: 2}))
	c := lastSent[wire.Confirm](e, 2)
	if c.OK || !strings.HasPrefix(c.Reason, "NC:") {
		t.Fatalf("lagging Q at %s: confirm %+v, want an NC denial against A's reservation (0, %s]", q, c, a)
	}
	if got := s.peerFloors[2]; got != (vtime.VT{Time: 50, Site: 2}) {
		t.Errorf("site 2's floor heard = %s, want 50@s2", got)
	}
}

func TestGCPreservesOutstandingSnapshotReads(t *testing.T) {
	// An attached pessimistic view holds the GC floor down so its
	// snapshots can still read; committed values it has not yet consumed
	// are never pruned out from under it.
	h := newHarness(t, 2, transport.Config{Latency: 2 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{refs[1]}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		if res := h.setInt(2, refs[2], int64(k)); !res.Committed {
			t.Fatal("write failed")
		}
	}
	// Lossless delivery despite concurrent GC.
	h.eventually(3*time.Second, "all values notified", func() bool {
		ups, _ := rec.snapshot()
		seen := map[int64]bool{}
		for _, u := range ups {
			if v, ok := u.Values[refs[1].ID()].(int64); ok {
				seen[v] = true
			}
		}
		for k := int64(1); k <= 10; k++ {
			if !seen[k] {
				return false
			}
		}
		return true
	})
}

func TestOutcomeTableDrivesLateUpdates(t *testing.T) {
	// Outcomes are retained so update messages arriving after the summary
	// COMMIT are applied as committed (paper §3.1). Force the ordering
	// with a delegated commit whose COMMIT beats the WRITE to a third
	// site.
	h := newHarness(t, 3, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		if from == 2 && to == 3 {
			return 30 * time.Millisecond // the WRITE dawdles
		}
		return time.Millisecond
	}})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	// Origin site 2; single remote primary site 1 (delegation): site 1
	// sends COMMIT to site 3 quickly while site 2's WRITE to site 3 is
	// slow — the outcome arrives first.
	if res := h.setInt(2, refs[2], 77); !res.Committed {
		t.Fatalf("write: %+v", res)
	}
	h.eventually(2*time.Second, "late update applied as committed", func() bool {
		return h.committedInt(3, refs[3]) == 77
	})
}

func TestVTHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h vtHeap
	var want []vtime.VT
	for i := 0; i < 500; i++ {
		// Few distinct times, so ties fall to the site and duplicates occur.
		vt := vtime.VT{Time: uint64(rng.Intn(60)), Site: vtime.SiteID(1 + rng.Intn(3))}
		h.push(vt)
		want = append(want, vt)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	for i, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %v, want %v", i, got, w)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d entries left after popping everything pushed", len(h))
	}
}

// TestGCFloorHeapsMatchScan checks the heap-driven floor against its
// definition — a scan of every transaction state — while transactions
// from three sites are in every stage of their life, and that
// decidedFloor leaves no decided state at or below the floor behind.
func TestGCFloorHeapsMatchScan(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond, Jitter: time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)
	if _, err := h.site(1).AttachView([]ObjRef{refs[1]}, Pessimistic, (&recorder{}).fns()); err != nil {
		t.Fatal(err)
	}

	check := func(i int) {
		s := h.site(i)
		_ = s.call(func() {
			want := s.clock.Now()
			for vt, st := range s.txns {
				if !st.decided() && vt.LessEq(want) {
					want = vtime.JustBelow(vt)
				}
			}
			n := len(s.txns)
			floor := s.decidedFloor()
			if floor != want {
				t.Errorf("site %d: decidedFloor = %v, a scan of %d states gives %v", i, floor, n, want)
			}
			for vt, st := range s.txns {
				if st.decided() && vt.LessEq(floor) {
					t.Errorf("site %d: decided %v survived a floor of %v", i, vt, floor)
				}
			}
		})
	}

	// Blind writes: in flight at every site at once, but never in
	// conflict, so no retry storm can outrun the endpoints' buffers.
	var handles []*Handle
	for k := 0; k < 150; k++ {
		i := 1 + k%3
		handles = append(handles, h.site(i).Submit(&Txn{Name: "set", Execute: func(tx *Tx) error {
			return tx.Write(refs[i], int64(k))
		}}))
		if k%5 == 0 {
			check(1 + (k/5)%3)
		}
	}
	for _, hd := range handles {
		select {
		case res := <-hd.Done():
			if !res.Committed {
				t.Fatalf("blind write: %+v", res)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("transaction never decided")
		}
	}
	h.eventually(5*time.Second, "all sites quiescent", func() bool {
		return h.noPendingTxns(1) && h.noPendingTxns(2) && h.noPendingTxns(3)
	})
	for i := 1; i <= 3; i++ {
		check(i)
		s := h.site(i)
		_ = s.call(func() {
			if n := len(s.undecidedVTs); n != 0 {
				t.Errorf("site %d: %d entries left in the undecided heap at quiescence", i, n)
			}
		})
	}
}

// TestSelfFloorTracksDecidedFloor checks the own-origin sync floor that
// floorList reads off decidedFloor, against a scan of every transaction
// state while transactions from two sites are in flight: it stays below
// every own transaction still executing or waiting, it never moves back,
// and at quiescence it reaches the clock minus one.
func TestSelfFloorTracksDecidedFloor(t *testing.T) {
	h, _ := walHarness(t, 2, Options{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	prev := map[int]uint64{}
	open := 0
	ownFloor := func(i int) (floor uint64, clock vtime.VT) {
		s := h.site(i)
		_ = s.call(func() {
			for _, f := range s.floorList() {
				if f.Site == s.id {
					floor = f.Time
				}
			}
			for vt, st := range s.txns {
				if st.origin != s.id || (st.status != txnExecuting && st.status != txnWaiting) {
					continue
				}
				open++
				if !(vtime.VT{Time: floor, Site: s.id}).Less(vt) {
					t.Errorf("site %d: own sync floor %d reaches open own transaction %v", i, floor, vt)
				}
			}
			clock = s.clock.Now()
		})
		if floor < prev[i] {
			t.Errorf("site %d: own sync floor moved back from %d to %d", i, prev[i], floor)
		}
		prev[i] = floor
		return floor, clock
	}

	var handles []*Handle
	for k := 0; k < 120; k++ {
		i := 1 + k%2
		handles = append(handles, h.site(i).Submit(&Txn{Name: "set", Execute: func(tx *Tx) error {
			return tx.Write(refs[i], int64(k))
		}}))
		if k%4 == 0 {
			ownFloor(1 + (k/4)%2)
		}
	}
	for _, hd := range handles {
		hd.Wait()
	}
	if open == 0 {
		t.Fatal("no check saw an own transaction in flight")
	}
	h.eventually(5*time.Second, "all sites quiescent", func() bool {
		return h.noPendingTxns(1) && h.noPendingTxns(2)
	})
	for i := 1; i <= 2; i++ {
		if floor, clock := ownFloor(i); floor+1 != clock.Time {
			t.Errorf("site %d: own sync floor %d at quiescence, clock %v", i, floor, clock)
		}
	}
}
