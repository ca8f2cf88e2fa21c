package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"decaf/internal/obs"
	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// newObsHarness builds n sites, each with its own fully enabled
// Observer (tracing + timing), returned by 1-based site index.
func newObsHarness(t *testing.T, n int, cfg transport.Config, opts Options) (*harness, map[int]*obs.Observer) {
	t.Helper()
	h := &harness{t: t, net: transport.NewNetwork(cfg), sites: map[vtime.SiteID]*Site{}}
	observers := map[int]*obs.Observer{}
	for i := 1; i <= n; i++ {
		id := vtime.SiteID(i)
		ep, err := h.net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		siteOpts := opts
		siteOpts.Observer = obs.New()
		observers[i] = siteOpts.Observer
		s := NewSite(ep, siteOpts)
		s.Start()
		h.sites[id] = s
	}
	t.Cleanup(func() {
		for _, s := range h.sites {
			s.Stop()
		}
		h.net.Close()
	})
	return h, observers
}

// TestCounterInvariantsQuiescent drives a mixed workload (blind writes,
// conflicting read-modify-writes, programmed aborts) from three sites,
// waits for quiescence, and checks the accounting identities every
// quiescent site must satisfy (see invariants.go for the identities
// and their terms). A violation means a transaction was double-counted
// or leaked a state.
func TestCounterInvariantsQuiescent(t *testing.T) {
	h, observers := newObsHarness(t, 3, transport.Config{}, Options{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	rng := rand.New(rand.NewSource(7))
	const perSite = 40
	abandoned := map[int]uint64{}
	programmed := map[int]uint64{}
	committed := map[int]uint64{}

	var handles []*Handle
	sites := []int{1, 2, 3}
	var order []int
	for _, i := range sites {
		for k := 0; k < perSite; k++ {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })

	byHandle := map[*Handle]int{}
	for _, i := range order {
		ref := refs[i]
		var txn *Txn
		switch rng.Intn(5) {
		case 0: // programmed abort
			txn = &Txn{Name: "boom", Execute: func(tx *Tx) error {
				return fmt.Errorf("no thanks")
			}}
		case 1, 2: // read-modify-write: conflicts under RL validation
			txn = &Txn{Name: "rmw", Execute: func(tx *Tx) error {
				v, err := tx.Read(ref)
				if err != nil {
					return err
				}
				n, _ := v.(int64)
				return tx.Write(ref, n+1)
			}}
		default: // blind write
			v := rng.Int63n(1000)
			txn = &Txn{Name: "set", Execute: func(tx *Tx) error {
				return tx.Write(ref, v)
			}}
		}
		hd := h.site(i).Submit(txn)
		byHandle[hd] = i
		handles = append(handles, hd)
	}

	for _, hd := range handles {
		res := hd.Wait()
		i := byHandle[hd]
		switch {
		case res.Committed:
			committed[i]++
		case errors.Is(res.Err, ErrAborted):
			programmed[i]++
		case errors.Is(res.Err, ErrTooManyRetries):
			abandoned[i]++
		default:
			t.Fatalf("site %d: unexpected result %+v", i, res)
		}
	}

	// Quiescence: no site holds an undecided remote transaction.
	h.eventually(5*time.Second, "all sites quiescent", func() bool {
		for _, i := range sites {
			if !h.noPendingTxns(i) {
				return false
			}
		}
		return true
	})

	for _, i := range sites {
		st := h.site(i).Stats()
		// The join/creation traffic of h.joined commits at its origin, so
		// it is already inside Submitted and Commits; only the workload
		// contributes aborts. The identities themselves live in
		// invariants.go, shared with the simulation harness.
		for _, violation := range st.IdentityViolations(abandoned[i]) {
			t.Errorf("site %d: %s", i, violation)
		}
		if st.ProgrammedAborts != programmed[i] {
			t.Errorf("site %d: ProgrammedAborts=%d, results saw %d", i, st.ProgrammedAborts, programmed[i])
		}
		// The same counters must be readable through the obs registry
		// under their Prometheus names.
		reg := observers[i].Metrics()
		if v, ok := reg.Value("decaf_txn_submitted_total"); !ok || uint64(v) != st.Submitted {
			t.Errorf("site %d: registry submitted=%v (ok=%v) != Stats.Submitted=%d", i, v, ok, st.Submitted)
		}
		if v, ok := reg.Value("decaf_txn_conflict_aborts_total"); !ok || uint64(v) != st.ConflictAborts {
			t.Errorf("site %d: registry conflict aborts=%v (ok=%v) != Stats.ConflictAborts=%d", i, v, ok, st.ConflictAborts)
		}
	}
}

// TestCommittedSpansContainConfirms checks the §3 state machine shape of
// traced spans: every committed transaction that its origin decided
// after propagating confirmation-requiring writes must have received a
// positive confirm from each such peer — and the trace must show it.
func TestCommittedSpansContainConfirms(t *testing.T) {
	h, observers := newObsHarness(t, 4, transport.Config{}, Options{})
	xs := h.joined(KindInt, "x", int64(0), 1, 2, 3)
	ys := h.joined(KindInt, "y", int64(0), 4, 2, 3)

	// Primary copies live at sites 1 and 4; all writes originate at sites
	// 2 and 3 and touch both objects, so no transaction is delegated.
	for k := 0; k < 10; k++ {
		for _, i := range []int{2, 3} {
			res := h.site(i).Submit(&Txn{Execute: func(tx *Tx) error {
				if err := tx.Write(xs[i], int64(k)); err != nil {
					return err
				}
				return tx.Write(ys[i], int64(k))
			}}).Wait()
			if !res.Committed {
				t.Fatalf("site %d write %d: %+v", i, k, res)
			}
		}
	}

	for _, i := range []int{2, 3} {
		spans := observers[i].Trace().Spans()
		checkedSpans := 0
		for _, sp := range spans {
			if sp.Outcome != "committed" {
				continue
			}
			needConfirm := map[vtime.SiteID]bool{}
			gotConfirm := map[vtime.SiteID]bool{}
			for _, ev := range sp.Events {
				switch ev.Kind {
				case obs.EvPropagate:
					if ev.Detail == "confirm" {
						needConfirm[ev.Peer] = true
					}
				case obs.EvConfirm:
					if ev.Detail == "ok" {
						gotConfirm[ev.Peer] = true
					}
				}
			}
			for peer := range needConfirm {
				checkedSpans++
				if !gotConfirm[peer] {
					t.Errorf("site %d: committed span %s propagated to primary %s but has no ok confirm: %+v",
						i, sp.TxnVT, peer, sp.Events)
				}
			}
		}
		if checkedSpans == 0 {
			t.Errorf("site %d: no committed spans with confirmation-requiring propagation were traced", i)
		}
		if dropped := observers[i].Trace().Dropped(); dropped != 0 {
			t.Errorf("site %d: trace dropped %d events; grow the ring for this workload", i, dropped)
		}
	}
}

// TestFastpathCounterInvariants drives a mixed fast-path/guessed workload
// and checks the accounting identities the commutative fast path adds:
//
//	FastpathCommits <= Commits            (fast commits are commits)
//	Σ FastpathCommits == committed adds   (every add commits fast, once)
//	Submitted == Commits + ProgrammedAborts + abandoned   (still holds)
//
// plus the registry names and the "committed-fastpath" span outcome, and
// that fast-path spans never contain a confirm exchange.
func TestFastpathCounterInvariants(t *testing.T) {
	h, observers := newObsHarness(t, 3, transport.Config{}, Options{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	rng := rand.New(rand.NewSource(11))
	const perSite = 30
	sites := []int{1, 2, 3}
	abandoned := map[int]uint64{}
	committedAdds := map[int]uint64{}

	type sub struct {
		site  int
		isAdd bool
		hd    *Handle
	}
	var subs []sub
	for k := 0; k < perSite; k++ {
		for _, i := range sites {
			ref := refs[i]
			isAdd := rng.Intn(10) < 7
			var txn *Txn
			if isAdd {
				txn = &Txn{Name: "add", Execute: func(tx *Tx) error {
					return tx.Add(ref, int64(1))
				}}
			} else {
				txn = &Txn{Name: "rmw", Execute: func(tx *Tx) error {
					v, err := tx.Read(ref)
					if err != nil {
						return err
					}
					n, _ := v.(int64)
					return tx.Write(ref, n+1)
				}}
			}
			subs = append(subs, sub{site: i, isAdd: isAdd, hd: h.site(i).Submit(txn)})
		}
	}

	for _, sb := range subs {
		res := sb.hd.Wait()
		switch {
		case res.Committed:
			if sb.isAdd {
				committedAdds[sb.site]++
			}
		case errors.Is(res.Err, ErrTooManyRetries):
			abandoned[sb.site]++
		default:
			t.Fatalf("site %d: unexpected result %+v", sb.site, res)
		}
	}

	h.eventually(5*time.Second, "all sites quiescent", func() bool {
		for _, i := range sites {
			if !h.noPendingTxns(i) {
				return false
			}
		}
		return true
	})

	for _, i := range sites {
		st := h.site(i).Stats()
		if st.FastpathCommits > st.Commits {
			t.Errorf("site %d: FastpathCommits=%d > Commits=%d", i, st.FastpathCommits, st.Commits)
		}
		if st.FastpathCommits != committedAdds[i] {
			t.Errorf("site %d: FastpathCommits=%d, committed adds=%d", i, st.FastpathCommits, committedAdds[i])
		}
		if st.Submitted != st.Commits+st.ProgrammedAborts+abandoned[i] {
			t.Errorf("site %d: Submitted=%d != Commits=%d + ProgrammedAborts=%d + abandoned=%d",
				i, st.Submitted, st.Commits, st.ProgrammedAborts, abandoned[i])
		}
		reg := observers[i].Metrics()
		if v, ok := reg.Value("decaf_fastpath_commits_total"); !ok || uint64(v) != st.FastpathCommits {
			t.Errorf("site %d: registry fastpath commits=%v (ok=%v) != Stats.FastpathCommits=%d", i, v, ok, st.FastpathCommits)
		}
		if v, ok := reg.Value("decaf_fastpath_demotions_total"); !ok || uint64(v) != st.FastpathDemotions {
			t.Errorf("site %d: registry fastpath demotions=%v (ok=%v) != Stats.FastpathDemotions=%d", i, v, ok, st.FastpathDemotions)
		}

		// Fast-path spans carry the dedicated outcome and, by
		// construction, no confirm exchange.
		fastSpans := 0
		for _, sp := range observers[i].Trace().Spans() {
			if sp.Outcome != "committed-fastpath" {
				continue
			}
			if sp.TxnVT.Site != vtime.SiteID(i) {
				continue // remote fast write applied here
			}
			fastSpans++
			for _, ev := range sp.Events {
				if ev.Kind == obs.EvConfirm || (ev.Kind == obs.EvPropagate && ev.Detail == "confirm") {
					t.Errorf("site %d: fast-path span %s contains confirm traffic: %+v", i, sp.TxnVT, ev)
				}
			}
		}
		if committedAdds[i] > 0 && fastSpans == 0 {
			t.Errorf("site %d: committed %d adds but traced no committed-fastpath spans", i, committedAdds[i])
		}
	}
}

// TestRepairCounterInvariants drives the §3.4 failover — a primary
// crash, the survivors' consensus repair, and a transaction that was in
// flight at the dead primary — and checks that the repair-generated
// internal transactions (graph updates, orphan decisions) keep the
// quiescent accounting identities balanced, that the consensus counters
// surface through the registry under their Prometheus names, and that
// the parked-retry gauge is back to zero once the repair releases
// whatever it parked.
func TestRepairCounterInvariants(t *testing.T) {
	h, observers := newObsHarness(t, 3, transport.Config{Latency: 2 * time.Millisecond}, Options{DisableFastPath: true})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	// Committed baseline traffic from every site, so the identities
	// have real terms on both sides before the crash.
	for k := 0; k < 3; k++ {
		for _, i := range []int{1, 2, 3} {
			if res := h.setInt(i, refs[i], int64(10*i+k)); !res.Committed {
				t.Fatalf("site %d write %d: %+v", i, k, res)
			}
		}
	}

	// A transaction is in flight at the primary when it dies. Depending
	// on timing its COMMIT either raced out before the kill or the
	// failover aborts it, parks the retry behind the repair, and re-runs
	// it under the repaired graph — it must commit either way.
	hd := h.site(2).Submit(&Txn{Name: "inc", Execute: func(tx *Tx) error {
		return tx.Add(refs[2], int64(1))
	}})
	<-hd.Applied()
	h.net.Kill(1)
	if res := hd.Wait(); !res.Committed {
		t.Fatalf("in-flight txn should commit after the repair: %+v", res)
	}

	h.eventually(5*time.Second, "repair installed and survivors quiescent", func() bool {
		for _, i := range []int{2, 3} {
			sites, err := h.site(i).ReplicaSites(refs[i])
			if err != nil || len(sites) != 2 {
				return false
			}
			if !h.noPendingTxns(i) {
				return false
			}
		}
		return true
	})

	var ballots uint64
	for _, i := range []int{2, 3} {
		st := h.site(i).Stats()
		for _, violation := range st.IdentityViolations(0) {
			t.Errorf("site %d: %s", i, violation)
		}
		ballots += st.RepairBallots
		reg := observers[i].Metrics()
		if v, ok := reg.Value("decaf_repair_ballots_total"); !ok || uint64(v) != st.RepairBallots {
			t.Errorf("site %d: registry repair ballots=%v (ok=%v) != Stats.RepairBallots=%d", i, v, ok, st.RepairBallots)
		}
		if v, ok := reg.Value("decaf_repair_quorum_failures_total"); !ok || uint64(v) != st.RepairQuorumFailures {
			t.Errorf("site %d: registry quorum failures=%v (ok=%v) != Stats.RepairQuorumFailures=%d", i, v, ok, st.RepairQuorumFailures)
		}
		if v, ok := reg.Value("decaf_engine_parked_retries"); !ok || v != 0 {
			t.Errorf("site %d: parked-retries gauge=%v (ok=%v), want 0 after the repair", i, v, ok)
		}
	}
	if ballots == 0 {
		t.Error("no survivor spent a repair ballot; the consensus path never ran")
	}
}
