package engine

import (
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// addInt runs a pure-add transaction at site i.
func (h *harness) addInt(i int, ref ObjRef, delta int64) Result {
	h.t.Helper()
	return h.site(i).Submit(&Txn{
		Name:    "add",
		Execute: func(tx *Tx) error { return tx.Add(ref, delta) },
	}).Wait()
}

// TestFastPathCommitsWithoutRoundTrip: a pure-add transaction must commit
// locally without waiting out the primary round-trip, even when the
// primary is two slow hops away.
func TestFastPathCommitsWithoutRoundTrip(t *testing.T) {
	const lat = 60 * time.Millisecond
	h := newHarness(t, 2, transport.Config{Latency: lat})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	// Site 2 is not the primary: a guessed write from here would wait
	// ~2*lat for its confirmation.
	start := time.Now()
	res := h.addInt(2, refs[2], 5)
	elapsed := time.Since(start)
	if !res.Committed || res.Err != nil {
		t.Fatalf("add result = %+v", res)
	}
	if elapsed >= lat {
		t.Fatalf("fast-path commit took %v, want well under one-way latency %v", elapsed, lat)
	}
	if st := h.site(2).Stats(); st.FastpathCommits != 1 {
		t.Fatalf("FastpathCommits = %d, want 1", st.FastpathCommits)
	}

	h.eventually(3*time.Second, "add replicated", func() bool {
		return h.committedInt(1, refs[1]) == 5 && h.committedInt(2, refs[2]) == 5
	})
}

// TestFastPathDisabled: with the ablation switch on, the same transaction
// goes through the ordinary guess/confirm protocol.
func TestFastPathDisabled(t *testing.T) {
	h := newHarnessOpts(t, 2, transport.Config{}, Options{DisableFastPath: true})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	if res := h.addInt(2, refs[2], 5); !res.Committed || res.Err != nil {
		t.Fatalf("add result = %+v", res)
	}
	if st := h.site(2).Stats(); st.FastpathCommits != 0 {
		t.Fatalf("FastpathCommits = %d, want 0 with DisableFastPath", st.FastpathCommits)
	}
	h.eventually(3*time.Second, "add replicated", func() bool {
		return h.committedInt(1, refs[1]) == 5
	})
}

// TestFastPathConcurrentAddsConverge: concurrent adds from every site
// merge to the total at every replica — no ordering agreement needed.
func TestFastPathConcurrentAddsConverge(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 42})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	const perSite = 20
	var handles []*Handle
	for k := 0; k < perSite; k++ {
		for _, i := range []int{1, 2, 3} {
			ref := refs[i]
			handles = append(handles, h.site(i).Submit(&Txn{
				Name:    "add",
				Execute: func(tx *Tx) error { return tx.Add(ref, 1) },
			}))
		}
	}
	for _, hd := range handles {
		if res := hd.Wait(); !res.Committed {
			t.Fatalf("add failed: %+v", res)
		}
	}
	const want = int64(3 * perSite)
	h.eventually(5*time.Second, "all replicas at the total", func() bool {
		for _, i := range []int{1, 2, 3} {
			if h.committedInt(i, refs[i]) != want {
				return false
			}
		}
		return true
	})
	var fast uint64
	for _, i := range []int{1, 2, 3} {
		fast += h.site(i).Stats().FastpathCommits
	}
	if fast != uint64(3*perSite) {
		t.Fatalf("sum of FastpathCommits = %d, want %d", fast, 3*perSite)
	}
}

// TestFastPathFoldsRepeatedAdds: several adds (and add-over-set) by one
// transaction fold into a single op with the combined effect.
func TestFastPathFoldsRepeatedAdds(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	res := h.site(2).Submit(&Txn{Name: "add3", Execute: func(tx *Tx) error {
		if err := tx.Add(refs[2], 2); err != nil {
			return err
		}
		if err := tx.Add(refs[2], 3); err != nil {
			return err
		}
		return tx.Add(refs[2], 5)
	}}).Wait()
	if !res.Committed {
		t.Fatalf("add3 result = %+v", res)
	}
	if st := h.site(2).Stats(); st.FastpathCommits != 1 {
		t.Fatalf("FastpathCommits = %d, want 1", st.FastpathCommits)
	}
	h.eventually(3*time.Second, "folded add replicated", func() bool {
		return h.committedInt(1, refs[1]) == 10 && h.committedInt(2, refs[2]) == 10
	})

	// Add over the transaction's own Set stays absolute (and therefore off
	// the fast path).
	res = h.site(2).Submit(&Txn{Name: "setadd", Execute: func(tx *Tx) error {
		if err := tx.Write(refs[2], int64(100)); err != nil {
			return err
		}
		return tx.Add(refs[2], 7)
	}}).Wait()
	if !res.Committed {
		t.Fatalf("setadd result = %+v", res)
	}
	h.eventually(3*time.Second, "set+add replicated", func() bool {
		return h.committedInt(1, refs[1]) == 107
	})
}

// TestFastPathDemotionRigged: a fast-path commit landing inside an open
// reservation interval must demote the reservation's guess. The
// reservation is rigged directly at the primary (the owner VT names a
// remote site), so the demotion sweep and the confirmation retraction are
// exercised deterministically.
func TestFastPathDemotionRigged(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	owner := vtime.VT{Time: 1 << 41, Site: 2}
	_ = h.site(1).call(func() {
		o := refs[1].o
		o.res.Reserve(vtime.Interval{Lo: vtime.Zero, Hi: vtime.VT{Time: 1 << 40, Site: 2}}, owner)
	})

	if res := h.addInt(2, refs[2], 3); !res.Committed {
		t.Fatalf("add result = %+v", res)
	}
	h.eventually(3*time.Second, "demotion recorded at primary", func() bool {
		return h.site(1).Stats().FastpathDemotions >= 1
	})
	h.eventually(3*time.Second, "add replicated", func() bool {
		return h.committedInt(1, refs[1]) == 3
	})
}

// TestFastPathDemotesOpenGuess is the end-to-end demotion scenario: a
// guessed read-modify-write holds an open reservation at the primary
// (still waiting on a confirm from a slow second primary) when a
// commutative add from a site with a lagging clock commits inside the
// reserved interval. The guess must be demoted to re-validation — abort,
// retry, and re-read of the merged value — and every replica must
// converge on add-then-rmw.
func TestFastPathDemotesOpenGuess(t *testing.T) {
	slowLinks := func(from, to vtime.SiteID) time.Duration {
		// Links to/from site 3 are slow (they keep the guess undecided);
		// so is site2->site4, which hides the guess's high VT from site 4
		// until after its low-VT add is submitted.
		if from == 3 || to == 3 || (from == 2 && to == 4) {
			return 60 * time.Millisecond
		}
		return time.Millisecond
	}
	h := newHarness(t, 4, transport.Config{LatencyFn: slowLinks})

	// x: primary at site 1, replicated at 2 and 4. y: primary at the slow
	// site 3, replicated at 2 — the anchor that keeps site 2's guess open.
	// With two remote primaries the guess is not delegated: site 2 decides.
	xs := h.joined(KindInt, "x", int64(0), 1, 2, 4)
	ys := h.joined(KindInt, "y", int64(0), 3, 2)

	// Push site 2's Lamport clock well past site 4's so the later add gets
	// the SMALLER virtual time (cross-site clock skew is the only way a
	// fast commit lands inside an open interval).
	bump, err := h.site(2).CreateObject(KindInt, "bump", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		if res := h.setInt(2, bump, int64(k)); !res.Committed {
			t.Fatalf("bump %d: %+v", k, res)
		}
	}

	// The guess: RMW over x and y. Its x-confirm comes back in ~2ms, but
	// the y-confirm needs ~120ms, so the x reservation stays open.
	guess := h.site(2).Submit(&Txn{Name: "rmw", Execute: func(tx *Tx) error {
		vx, err := tx.Read(xs[2])
		if err != nil {
			return err
		}
		if err := tx.Write(xs[2], vx.(int64)+1); err != nil {
			return err
		}
		vy, err := tx.Read(ys[2])
		if err != nil {
			return err
		}
		return tx.Write(ys[2], vy.(int64)+1)
	}})

	// Let the guess's Write reach the primary and open the reservation.
	time.Sleep(20 * time.Millisecond)

	if res := h.addInt(4, xs[4], 10); !res.Committed {
		t.Fatalf("fast add: %+v", res)
	}

	if res := guess.Wait(); !res.Committed || res.Retries == 0 {
		t.Fatalf("guess result = %+v, want committed after >= 1 retry", res)
	}

	h.eventually(5*time.Second, "replicas converged on add-then-rmw", func() bool {
		for _, i := range []int{1, 2, 4} {
			if h.committedInt(i, xs[i]) != 11 {
				return false
			}
		}
		return true
	})
	if st := h.site(1).Stats(); st.FastpathDemotions == 0 {
		t.Fatalf("primary recorded no demotions; stats = %+v", st)
	}
	if st := h.site(2).Stats(); st.Retries == 0 {
		t.Fatalf("origin recorded no retries; stats = %+v", st)
	}
}

// TestFastPathVersionDeniesLaterGuess: the converse interleaving. The
// fast-path version is already in the primary's history when a guessed
// RMW that read the pre-add value validates; the ordinary RL scan must
// deny the guess even though no reservation ever covered the fast write.
func TestFastPathVersionDeniesLaterGuess(t *testing.T) {
	slow12 := func(from, to vtime.SiteID) time.Duration {
		if (from == 1 && to == 2) || (from == 2 && to == 1) {
			return 50 * time.Millisecond
		}
		return time.Millisecond
	}
	h := newHarness(t, 3, transport.Config{LatencyFn: slow12})
	xs := h.joined(KindInt, "x", int64(0), 1, 2, 3)
	// y's primary is site 3: with two remote primaries the guess is not
	// delegated, so site 2 decides it.
	y := h.joined(KindInt, "y", int64(0), 3, 2)[2]

	// Site 2's clock runs ahead so the fast add's VT sits inside the
	// guess's (tR, tT] interval.
	bump, err := h.site(2).CreateObject(KindInt, "bump", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		if res := h.setInt(2, bump, int64(k)); !res.Committed {
			t.Fatalf("bump %d: %+v", k, res)
		}
	}

	// The fast add reaches the primary in ~1ms; the guess's Write needs
	// ~50ms, so validation sees the committed fast version first.
	guess := h.site(2).Submit(&Txn{Name: "rmw", Execute: func(tx *Tx) error {
		if err := tx.Write(y, int64(1)); err != nil {
			return err
		}
		vx, err := tx.Read(xs[2])
		if err != nil {
			return err
		}
		return tx.Write(xs[2], vx.(int64)+1)
	}})
	if res := h.addInt(3, xs[3], 10); !res.Committed {
		t.Fatalf("fast add: %+v", res)
	}

	if res := guess.Wait(); !res.Committed || res.Retries == 0 {
		t.Fatalf("guess result = %+v, want committed after >= 1 retry", res)
	}
	h.eventually(5*time.Second, "replicas converged", func() bool {
		for _, i := range []int{1, 2, 3} {
			if h.committedInt(i, xs[i]) != 11 {
				return false
			}
		}
		return true
	})
	if st := h.site(2).Stats(); st.ConflictAborts == 0 {
		t.Fatalf("origin recorded no conflict aborts; stats = %+v", st)
	}
}

// TestFastPathMixedWorkloadStress is the CI -race workload: three sites
// mixing commutative adds with guessed read-modify-writes over one shared
// counter. Asserts convergence: after quiescence every replica holds the
// identical committed value. (The exact value is not asserted: an add
// whose fast write races a guessed Set's in-flight confirmation can be
// absorbed by the later absolute write — the documented residual window
// of mixing commutative and absolute ops; see DESIGN.md §11.)
func TestFastPathMixedWorkloadStress(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 7})
	refs := h.joined(KindInt, "c", int64(0), 1, 2, 3)

	const perSite = 30
	var handles []*Handle
	byHandle := map[*Handle]bool{} // true = add
	for k := 0; k < perSite; k++ {
		for _, i := range []int{1, 2, 3} {
			ref := refs[i]
			var txn *Txn
			isAdd := k%10 < 7 // 70% commutative, 30% guessed
			if isAdd {
				txn = &Txn{Name: "add", Execute: func(tx *Tx) error { return tx.Add(ref, 1) }}
			} else {
				txn = &Txn{Name: "rmw", Execute: func(tx *Tx) error {
					v, err := tx.Read(ref)
					if err != nil {
						return err
					}
					return tx.Write(ref, v.(int64)+1)
				}}
			}
			hd := h.site(i).Submit(txn)
			byHandle[hd] = isAdd
			handles = append(handles, hd)
		}
	}
	var adds uint64
	for _, hd := range handles {
		res := hd.Wait()
		switch {
		case res.Committed && byHandle[hd]:
			adds++
		case res.Committed:
			// Guessed RMW committed.
		case res.Err == nil:
			t.Fatalf("transaction neither committed nor errored: %+v", res)
		}
		// RMWs may exhaust retries under heavy conflict; that surfaces as
		// an ErrTooManyRetries result, which is fine for this workload.
	}

	// Quiescence, then replica agreement: every site must hold the same
	// committed value, and it must reflect at least some of the work.
	h.eventually(10*time.Second, "all sites quiescent", func() bool {
		for _, i := range []int{1, 2, 3} {
			if !h.noPendingTxns(i) {
				return false
			}
		}
		return true
	})
	h.eventually(10*time.Second, "all replicas converged to one value", func() bool {
		v := h.committedInt(1, refs[1])
		return v > 0 &&
			h.committedInt(2, refs[2]) == v &&
			h.committedInt(3, refs[3]) == v
	})

	var fast uint64
	for _, i := range []int{1, 2, 3} {
		st := h.site(i).Stats()
		fast += st.FastpathCommits
		if st.FastpathCommits > st.Commits {
			t.Errorf("site %d: FastpathCommits=%d > Commits=%d", i, st.FastpathCommits, st.Commits)
		}
	}
	if fast != adds {
		t.Errorf("sum of FastpathCommits = %d, want %d (every committed add is fast-path)", fast, adds)
	}
}

// TestListInsertAfterConvergesAcrossSites: concurrent stable-position
// inserts anchored on the same element converge to one deterministic
// order at every replica — the sanctioned concurrent-editing path.
func TestListInsertAfterConvergesAcrossSites(t *testing.T) {
	h := newHarness(t, 2, transport.Config{Latency: 5 * time.Millisecond})
	lists := h.joined(KindList, "L", nil, 1, 2)

	// Seed one committed anchor element from site 1.
	res := h.site(1).Submit(&Txn{Name: "seed", Execute: func(tx *Tx) error {
		_, err := tx.ListInsertAfter(lists[1], wire.ElemTag{}, wire.ChildDecl{Kind: KindInt, Value: int64(100)})
		return err
	}}).Wait()
	if !res.Committed {
		t.Fatalf("seed: %+v", res)
	}
	h.eventually(3*time.Second, "anchor replicated", func() bool {
		return len(h.committedList(2, lists[2])) == 1
	})

	// Both sites concurrently insert after the same anchor.
	insert := func(i int, v int64) *Handle {
		return h.site(i).Submit(&Txn{Name: "ins", Execute: func(tx *Tx) error {
			tag, err := tx.ListTagAt(lists[i], 0)
			if err != nil {
				return err
			}
			_, err = tx.ListInsertAfter(lists[i], tag, wire.ChildDecl{Kind: KindInt, Value: int64(v)})
			return err
		}})
	}
	h1, h2 := insert(1, 1), insert(2, 2)
	if r := h1.Wait(); !r.Committed {
		t.Fatalf("site 1 insert: %+v", r)
	}
	if r := h2.Wait(); !r.Committed {
		t.Fatalf("site 2 insert: %+v", r)
	}

	h.eventually(5*time.Second, "lists converged", func() bool {
		a := h.committedList(1, lists[1])
		b := h.committedList(2, lists[2])
		if len(a) != 3 || len(b) != 3 {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return a[0] == int64(100)
	})
}

// TestListIndexInsertRaceConverges is the satellite regression test for
// index-based inserts under concurrent submitters: two sites inserting
// "at index 1" resolve the index against different local states, so
// element placement follows each site's view — but the replicas must
// still converge to one identical order. (For intent-preserving
// concurrent editing, anchor on an element with ListInsertAfter instead.)
func TestListIndexInsertRaceConverges(t *testing.T) {
	h := newHarness(t, 2, transport.Config{Latency: 5 * time.Millisecond})
	lists := h.joined(KindList, "L", nil, 1, 2)

	res := h.site(1).Submit(&Txn{Name: "seed", Execute: func(tx *Tx) error {
		if _, err := tx.ListInsert(lists[1], 0, wire.ChildDecl{Kind: KindInt, Value: int64(100)}); err != nil {
			return err
		}
		_, err := tx.ListInsert(lists[1], 1, wire.ChildDecl{Kind: KindInt, Value: int64(200)})
		return err
	}}).Wait()
	if !res.Committed {
		t.Fatalf("seed: %+v", res)
	}
	h.eventually(3*time.Second, "seed replicated", func() bool {
		return len(h.committedList(2, lists[2])) == 2
	})

	insertAt1 := func(i int, v int64) *Handle {
		return h.site(i).Submit(&Txn{Name: "ins", Execute: func(tx *Tx) error {
			_, err := tx.ListInsert(lists[i], 1, wire.ChildDecl{Kind: KindInt, Value: int64(v)})
			return err
		}})
	}
	h1, h2 := insertAt1(1, 1), insertAt1(2, 2)
	r1, r2 := h1.Wait(), h2.Wait()
	if !r1.Committed && r1.Err == nil {
		t.Fatalf("site 1 insert: %+v", r1)
	}
	if !r2.Committed && r2.Err == nil {
		t.Fatalf("site 2 insert: %+v", r2)
	}
	want := 2
	if r1.Committed {
		want++
	}
	if r2.Committed {
		want++
	}

	h.eventually(5*time.Second, "lists converged to one order", func() bool {
		a := h.committedList(1, lists[1])
		b := h.committedList(2, lists[2])
		if len(a) != want || len(b) != want {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	})
}

// committedList reads the committed list structure at site i.
func (h *harness) committedList(i int, ref ObjRef) []any {
	h.t.Helper()
	v, err := h.site(i).ReadCommitted(ref)
	if err != nil {
		h.t.Fatal(err)
	}
	out, _ := v.([]any)
	return out
}
