package engine

import (
	"slices"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

func TestFailureNotificationMarksSite(t *testing.T) {
	h := newHarness(t, 3, transport.Config{})
	_ = h.joined(KindInt, "x", int64(0), 1, 2, 3)
	h.net.Kill(3)
	h.eventually(2*time.Second, "failure noted", func() bool {
		var failed bool
		_ = h.site(1).call(func() { failed = h.site(1).failed[3] })
		return failed
	})
}

func TestOriginatorFailureAbortsUnknownTxn(t *testing.T) {
	// The originating site dies right after distributing updates but
	// before any COMMIT: survivors must agree to abort (paper §3.4).
	h := newHarness(t, 3, transport.Config{Latency: 5 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	// A second relationship rooted at site 2, so the transaction has TWO
	// remote primary sites (1 and 2) and the delegated-commit
	// optimization does not apply — no single site can decide alone.
	refsY := h.joined(KindInt, "y", int64(0), 2, 1, 3)
	if p, _ := h.site(3).PrimarySite(refsY[3]); p != 2 {
		t.Fatalf("y's primary = %v, want 2", p)
	}

	// Kill site 3 the moment the updates are applied locally, before
	// confirmations can round-trip to the origin.
	hd := h.site(3).Submit(&Txn{Execute: func(tx *Tx) error {
		if err := tx.Write(refs[3], int64(77)); err != nil {
			return err
		}
		return tx.Write(refsY[3], int64(88))
	}})
	<-hd.Applied()
	h.net.Kill(3)

	// Survivors resolve the orphan: neither saw a COMMIT, so it aborts
	// and the replicas stay at the old committed value.
	h.eventually(3*time.Second, "orphan resolved", func() bool {
		v1, _ := h.site(1).ReadCurrent(refs[1])
		v2, _ := h.site(2).ReadCurrent(refs[2])
		y1, _ := h.site(1).ReadCurrent(refsY[1])
		return v1 == int64(0) && v2 == int64(0) && y1 == int64(0) &&
			h.noPendingTxns(1) && h.noPendingTxns(2)
	})
}

// noPendingTxns reports whether site i has no transactions in applied
// (undecided) state.
func (h *harness) noPendingTxns(i int) bool {
	ok := true
	_ = h.site(i).call(func() {
		for _, st := range h.site(i).txns {
			if st.status == txnApplied {
				ok = false
			}
		}
	})
	return ok
}

func TestOriginatorFailureCommitsKnownTxn(t *testing.T) {
	// If any survivor received the COMMIT, the transaction commits at all
	// survivors (paper §3.4).
	h := newHarness(t, 3, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		// COMMIT from site 3 to site 2 is fast; to site 1 very slow (so
		// site 1 is unaware at failure time and must learn via query).
		if from == 3 && to == 1 {
			return 80 * time.Millisecond
		}
		return 2 * time.Millisecond
	}})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	hd := h.setInt2Async(3, refs[3], 55)
	res := hd.Wait() // commits at origin (confirm from primary site 1 is fast)
	if !res.Committed {
		t.Fatalf("txn: %+v", res)
	}
	// Kill site 3 before its slow COMMIT reaches site 1.
	h.net.Kill(3)

	h.eventually(3*time.Second, "survivors converge on committed value", func() bool {
		v1, _ := h.site(1).ReadCommitted(refs[1])
		v2, _ := h.site(2).ReadCommitted(refs[2])
		return v1 == int64(55) && v2 == int64(55)
	})
}

func TestGraphRepairBySurvivingPrimary(t *testing.T) {
	// Site 2 (not the primary) fails; the surviving primary (site 1)
	// coordinates an ordinary graph update removing site 2's node.
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	h.net.Kill(2)
	h.eventually(3*time.Second, "graph repaired at survivors", func() bool {
		ok := true
		for _, i := range []int{1, 3} {
			sites, err := h.site(i).ReplicaSites(refs[i])
			if err != nil {
				return false
			}
			for _, s := range sites {
				if s == 2 {
					ok = false
				}
			}
		}
		return ok
	})

	// Writes keep working among survivors.
	if res := h.setInt(3, refs[3], 9); !res.Committed {
		t.Fatalf("post-repair write: %+v", res)
	}
	h.eventually(2*time.Second, "post-repair convergence", func() bool {
		v1, _ := h.site(1).ReadCommitted(refs[1])
		return v1 == int64(9)
	})
}

func TestGraphRepairByConsensusWhenPrimaryFails(t *testing.T) {
	// The PRIMARY site (site 1 hosts the minimum node) fails: survivors
	// run the consensus protocol, apply the repaired graph at a common
	// VT, and elect the new primary implicitly (paper §3.4).
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	p, _ := h.site(2).PrimarySite(refs[2])
	if p != 1 {
		t.Fatalf("expected primary at site 1, got %v", p)
	}
	h.net.Kill(1)

	h.eventually(3*time.Second, "consensus graph repair", func() bool {
		for _, i := range []int{2, 3} {
			sites, err := h.site(i).ReplicaSites(refs[i])
			if err != nil || len(sites) != 2 {
				return false
			}
			for _, s := range sites {
				if s == 1 {
					return false
				}
			}
		}
		return true
	})

	// The new primary is a function of the repaired graph; writes work.
	if res := h.setInt(3, refs[3], 4); !res.Committed {
		t.Fatalf("post-consensus write: %+v", res)
	}
	h.eventually(2*time.Second, "post-consensus convergence", func() bool {
		v2, _ := h.site(2).ReadCommitted(refs[2])
		return v2 == int64(4)
	})
}

func TestTxnWaitingOnFailedPrimaryRetriesAfterRepair(t *testing.T) {
	// A transaction stuck waiting for a failed primary's confirmation is
	// aborted, parked, and retried after the repair commits (paper §3.4:
	// "it is retried later after the graph update has committed and a new
	// primary site is identified").
	h := newHarness(t, 3, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		if from == 3 || to == 3 {
			return 50 * time.Millisecond // slow path to the primary
		}
		return 2 * time.Millisecond
	}})
	// Make site 3 host the primary: join 3's object first so it has the
	// minimal ObjectID... ObjectIDs order by site, so site 1 would win.
	// Instead create the relationship starting from site 3.
	refs := h.joined(KindInt, "x", int64(0), 3, 1, 2)
	p, _ := h.site(1).PrimarySite(refs[1])
	if p != 3 {
		t.Fatalf("expected primary at site 3, got %v", p)
	}

	hd := h.setInt2Async(1, refs[1], 123)
	<-hd.Applied()
	h.net.Kill(3) // primary dies while the confirm is in flight

	res := hd.Wait()
	if !res.Committed {
		t.Fatalf("parked retry should eventually commit: %+v", res)
	}
	h.eventually(3*time.Second, "value committed at survivors", func() bool {
		v1, _ := h.site(1).ReadCommitted(refs[1])
		v2, _ := h.site(2).ReadCommitted(refs[2])
		return v1 == int64(123) && v2 == int64(123)
	})
}

// TestLateOrphanFromFailedOriginIsQueried: a Write can reach a survivor
// after its origin was declared failed (relayed by anti-entropy, say).
// No commit query was started for it at failure time, so it must get
// one once its updates apply, or it stays undecided for good.
func TestLateOrphanFromFailedOriginIsQueried(t *testing.T) {
	e := newPCEnv(t)
	s, x := e.s, e.objs["x"]
	deliver := func(ev transport.Event) {
		s.beginBatch()
		s.handleEvent(ev)
	}
	// Site 3 hosts no replica here, so its failure repairs nothing.
	deliver(transport.Event{Kind: transport.EventSiteFailed, Failed: 3})

	vt := vtime.VT{Time: 51, Site: 3}
	deliver(transport.Event{Kind: transport.EventMessage, From: 3, SentAt: vt, Msg: wire.Write{
		TxnVT: vt, Origin: 3, NeedsConfirm: true,
		Updates: []wire.Update{{Target: x.id, GraphVT: x.graphVT, Op: wire.OpSet{Value: int64(7)}}},
	}})
	if s.commitQueries[vt] == nil {
		t.Fatalf("late orphan %s: no commit query open (status %v)", vt, s.txns[vt].status)
	}
	if q := lastSent[wire.CommitQuery](e, 2); q.TxnVT != vt {
		t.Fatalf("CommitQuery to site 2 = %+v, want one for %s", q, vt)
	}
	want := []string{vtime.SiteID(2).String()}
	if got := s.collectDebugState()["orphan_queries"].(map[string][]string)[vt.String()]; !slices.Equal(got, want) {
		t.Fatalf("orphan_queries[%s] = %v, want %v", vt, got, want)
	}

	// Site 2 never saw a COMMIT: the orphan aborts.
	deliver(transport.Event{Kind: transport.EventMessage, From: 2, SentAt: vtime.VT{Time: 60, Site: 2},
		Msg: wire.CommitQueryReply{TxnVT: vt, From: 2}})
	if committed, decided := s.outcomes.get(vt); !decided || committed {
		t.Fatalf("late orphan %s: outcome (committed %v, decided %v), want an abort", vt, committed, decided)
	}
	if len(s.commitQueries) != 0 {
		t.Fatalf("commit queries left open: %v", s.commitQueries)
	}
}
