package engine

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// harness builds a set of sites on one in-memory network.
type harness struct {
	t     *testing.T
	net   *transport.Network
	sites map[vtime.SiteID]*Site
}

func newHarness(t *testing.T, n int, cfg transport.Config) *harness {
	t.Helper()
	return newHarnessOpts(t, n, cfg, Options{})
}

// newHarnessOpts builds a harness with explicit site options.
func newHarnessOpts(t *testing.T, n int, cfg transport.Config, opts Options) *harness {
	t.Helper()
	return newHarnessWrapped(t, n, cfg, opts, nil)
}

// newHarnessWrapped is newHarnessOpts with each site's endpoint passed
// through wrap (when non-nil) before the site is built on it.
func newHarnessWrapped(t *testing.T, n int, cfg transport.Config, opts Options, wrap func(transport.Endpoint) transport.Endpoint) *harness {
	t.Helper()
	h := &harness{t: t, net: transport.NewNetwork(cfg), sites: map[vtime.SiteID]*Site{}}
	var logger *slog.Logger
	if os.Getenv("DECAF_DEBUG") != "" {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	for i := 1; i <= n; i++ {
		id := vtime.SiteID(i)
		ep, err := h.net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			ep = wrap(ep)
		}
		opts.Logger = logger
		s := NewSite(ep, opts)
		s.Start()
		h.sites[id] = s
	}
	t.Cleanup(func() {
		for _, s := range h.sites {
			s.Stop()
		}
		h.net.Close()
	})
	return h
}

func (h *harness) site(i int) *Site { return h.sites[vtime.SiteID(i)] }

// joined creates one object per site, all joined into a single replica
// relationship, returning refs per site index (1-based).
func (h *harness) joined(kind Kind, desc string, initial any, sites ...int) map[int]ObjRef {
	h.t.Helper()
	refs := map[int]ObjRef{}
	first := sites[0]
	ref, err := h.site(first).CreateObject(kind, desc, initial)
	if err != nil {
		h.t.Fatal(err)
	}
	refs[first] = ref
	for _, i := range sites[1:] {
		r, err := h.site(i).CreateObject(kind, desc, initial)
		if err != nil {
			h.t.Fatal(err)
		}
		res := h.site(i).JoinObject(r, vtime.SiteID(first), ref.ID()).Wait()
		if res.Err != nil || !res.Committed {
			h.t.Fatalf("join from site %d: %+v", i, res)
		}
		refs[i] = r
	}
	// Joins commit at their origin before every member has applied the
	// final merged graph and heard the commit; wait until all members
	// agree and have decided everything, so tests start from a settled
	// topology (a view attached earlier would still hear a join).
	h.eventually(3*time.Second, "replica graphs converged", func() bool {
		for _, i := range sites {
			got, err := h.site(i).ReplicaSites(refs[i])
			if err != nil || len(got) != len(sites) || h.site(i).PendingUndecided() != 0 {
				return false
			}
		}
		return true
	})
	return refs
}

// eventually polls until cond is true or the deadline passes.
func (h *harness) eventually(timeout time.Duration, what string, cond func() bool) {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("timed out waiting for %s", what)
}

// committedInt reads the committed int64 value of ref at site i.
func (h *harness) committedInt(i int, ref ObjRef) int64 {
	h.t.Helper()
	v, err := h.site(i).ReadCommitted(ref)
	if err != nil {
		h.t.Fatal(err)
	}
	n, _ := v.(int64)
	return n
}

// setInt runs a blind-write transaction setting ref to v at site i.
func (h *harness) setInt(i int, ref ObjRef, v int64) Result {
	h.t.Helper()
	return h.site(i).Submit(&Txn{
		Name:    "set",
		Execute: func(tx *Tx) error { return tx.Write(ref, v) },
	}).Wait()
}

func TestLocalOnlyTransaction(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	ref, err := h.site(1).CreateObject(KindInt, "x", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	res := h.setInt(1, ref, 42)
	if !res.Committed || res.Err != nil {
		t.Fatalf("result = %+v", res)
	}
	if got := h.committedInt(1, ref); got != 42 {
		t.Fatalf("value = %d, want 42", got)
	}
	// An initial value outside the kind's type (here untyped int, which the
	// wire codec cannot carry in a JoinReply) never enters a history.
	if _, err := h.site(1).CreateObject(KindInt, "y", 7); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("CreateObject(KindInt, int) err = %v, want ErrWrongKind", err)
	}
}

func TestReadYourWrites(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	ref, _ := h.site(1).CreateObject(KindInt, "x", int64(5))
	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		v, err := tx.Read(ref)
		if err != nil {
			return err
		}
		if v.(int64) != 5 {
			return fmt.Errorf("first read = %v", v)
		}
		if err := tx.Write(ref, int64(6)); err != nil {
			return err
		}
		v, _ = tx.Read(ref)
		if v.(int64) != 6 {
			return fmt.Errorf("read-your-write = %v", v)
		}
		if err := tx.Write(ref, v.(int64)+1); err != nil {
			return err
		}
		return nil
	}}).Wait()
	if !res.Committed {
		t.Fatalf("result = %+v", res)
	}
	if got := h.committedInt(1, ref); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

func TestProgrammedAbort(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	ref, _ := h.site(1).CreateObject(KindInt, "x", int64(1))
	abortCalled := make(chan error, 1)
	res := h.site(1).Submit(&Txn{
		Execute: func(tx *Tx) error {
			if err := tx.Write(ref, int64(99)); err != nil {
				return err
			}
			return fmt.Errorf("can't transfer more than balance")
		},
		OnAbort: func(err error) { abortCalled <- err },
	}).Wait()
	if res.Committed || res.Err == nil {
		t.Fatalf("result = %+v, want programmed abort", res)
	}
	select {
	case err := <-abortCalled:
		if err == nil {
			t.Fatal("OnAbort got nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("OnAbort not called")
	}
	// The optimistic write must be rolled back.
	if got := h.committedInt(1, ref); got != 1 {
		t.Fatalf("value = %d, want 1 (rolled back)", got)
	}
	if v, _ := h.site(1).ReadCurrent(ref); v.(int64) != 1 {
		t.Fatalf("current = %v, want 1", v)
	}
}

func TestPanicBecomesAbort(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	ref, _ := h.site(1).CreateObject(KindInt, "x", int64(1))
	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		_ = tx.Write(ref, int64(1000))
		panic("boom")
	}}).Wait()
	if res.Committed || res.Err == nil {
		t.Fatalf("result = %+v, want abort", res)
	}
	if got := h.committedInt(1, ref); got != 1 {
		t.Fatalf("value = %d, want 1", got)
	}
}

func TestJoinAndReplicatedWrite(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "counter", int64(0), 1, 2)

	// Both replicas report the same replica sites and primary.
	sites1, _ := h.site(1).ReplicaSites(refs[1])
	sites2, _ := h.site(2).ReplicaSites(refs[2])
	if len(sites1) != 2 || len(sites2) != 2 {
		t.Fatalf("replica sites: %v / %v", sites1, sites2)
	}
	p1, _ := h.site(1).PrimarySite(refs[1])
	p2, _ := h.site(2).PrimarySite(refs[2])
	if p1 != p2 {
		t.Fatalf("primary disagreement: %v vs %v", p1, p2)
	}

	res := h.setInt(2, refs[2], 7)
	if !res.Committed {
		t.Fatalf("write: %+v", res)
	}
	h.eventually(2*time.Second, "replica convergence", func() bool {
		return h.committedInt(1, refs[1]) == 7 && h.committedInt(2, refs[2]) == 7
	})
}

func TestJoinCopiesValue(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	ref1, _ := h.site(1).CreateObject(KindString, "s", "hello")
	ref2, _ := h.site(2).CreateObject(KindString, "s", "")
	res := h.site(2).JoinObject(ref2, 1, ref1.ID()).Wait()
	if !res.Committed {
		t.Fatalf("join: %+v", res)
	}
	h.eventually(time.Second, "value copy", func() bool {
		v, _ := h.site(2).ReadCommitted(ref2)
		return v == "hello"
	})
}

func TestThreePartyConvergence(t *testing.T) {
	h := newHarness(t, 3, transport.Config{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)
	res := h.setInt(3, refs[3], 11)
	if !res.Committed {
		t.Fatalf("write: %+v", res)
	}
	h.eventually(2*time.Second, "three-site convergence", func() bool {
		return h.committedInt(1, refs[1]) == 11 &&
			h.committedInt(2, refs[2]) == 11 &&
			h.committedInt(3, refs[3]) == 11
	})
}

func TestConflictAbortAndRetry(t *testing.T) {
	h := newHarness(t, 2, transport.Config{Latency: 2 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	// Two read-modify-write increments race from both sites; optimistic
	// concurrency control must serialize them via abort+retry so no
	// increment is lost.
	inc := func(i int) *Handle {
		return h.site(i).Submit(&Txn{Execute: func(tx *Tx) error {
			v, err := tx.Read(refs[i])
			if err != nil {
				return err
			}
			return tx.Write(refs[i], v.(int64)+1)
		}})
	}
	h1, h2 := inc(1), inc(2)
	r1, r2 := h1.Wait(), h2.Wait()
	if !r1.Committed || !r2.Committed {
		t.Fatalf("results: %+v / %+v", r1, r2)
	}
	h.eventually(2*time.Second, "both increments applied", func() bool {
		return h.committedInt(1, refs[1]) == 2 && h.committedInt(2, refs[2]) == 2
	})
}

func TestAtomicMultiObjectTransfer(t *testing.T) {
	// The paper's XferTrans example (Fig. 2): move balance between two
	// replicated accounts atomically.
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	acctA := h.joined(KindFloat, "A", 100.0, 1, 2)
	acctB := h.joined(KindFloat, "B", 0.0, 1, 2)

	res := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		av, _ := tx.Read(acctA[2])
		bv, _ := tx.Read(acctB[2])
		amt := 30.0
		if av.(float64) < amt {
			return fmt.Errorf("can't transfer more than balance")
		}
		_ = tx.Write(acctA[2], av.(float64)-amt)
		_ = tx.Write(acctB[2], bv.(float64)+amt)
		return nil
	}}).Wait()
	if !res.Committed {
		t.Fatalf("transfer: %+v", res)
	}
	h.eventually(2*time.Second, "transfer visible at both sites", func() bool {
		a1, _ := h.site(1).ReadCommitted(acctA[1])
		b1, _ := h.site(1).ReadCommitted(acctB[1])
		return a1 == 70.0 && b1 == 30.0
	})
}

func TestOverdraftAborts(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	acct := h.joined(KindFloat, "A", 10.0, 1, 2)
	res := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		av, _ := tx.Read(acct[2])
		if av.(float64) < 50 {
			return fmt.Errorf("can't transfer more than balance")
		}
		return tx.Write(acct[2], av.(float64)-50)
	}}).Wait()
	if res.Committed || res.Err == nil {
		t.Fatalf("result = %+v, want programmed abort", res)
	}
	if v, _ := h.site(1).ReadCommitted(acct[1]); v != 10.0 {
		t.Fatalf("balance = %v, want 10", v)
	}
}

func TestBlindWritesNeverConflict(t *testing.T) {
	// Paper §5.1.2: "In an application in which all operations are blind
	// writes ... there are no update inconsistencies, because concurrency
	// control tests never fail."
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	refs := h.joined(KindInt, "wb", int64(0), 1, 2)

	var handles []*Handle
	for k := 0; k < 10; k++ {
		v := int64(k)
		handles = append(handles, h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
			return tx.Write(refs[1], v)
		}}))
		handles = append(handles, h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
			return tx.Write(refs[2], v+100)
		}}))
	}
	for _, hd := range handles {
		if r := hd.Wait(); !r.Committed {
			t.Fatalf("blind write aborted: %+v", r)
		}
	}
	st1 := h.site(1).Stats()
	st2 := h.site(2).Stats()
	if st1.ConflictAborts != 0 || st2.ConflictAborts != 0 {
		t.Fatalf("blind writes caused aborts: %d / %d", st1.ConflictAborts, st2.ConflictAborts)
	}
	// Replicas converge to the same final value.
	h.eventually(2*time.Second, "convergence", func() bool {
		return h.committedInt(1, refs[1]) == h.committedInt(2, refs[2])
	})
}

func TestRCDependencyChain(t *testing.T) {
	// A transaction reading an uncommitted value must not commit before
	// the writer does (read-committed guess).
	h := newHarness(t, 2, transport.Config{Latency: 5 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)
	other, _ := h.site(2).CreateObject(KindInt, "local", int64(0))

	// Writer from site 2 (primary is site 1, so commit takes ~2 RTT).
	w := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.Write(refs[2], int64(5))
	}})
	<-w.Applied()
	// Reader at site 2 reads the uncommitted 5 and writes it elsewhere.
	r := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		v, _ := tx.Read(refs[2])
		return tx.Write(other, v.(int64))
	}})
	rw, rr := w.Wait(), r.Wait()
	if !rw.Committed || !rr.Committed {
		t.Fatalf("results: %+v / %+v", rw, rr)
	}
	if got := h.committedInt(2, other); got != 5 {
		t.Fatalf("dependent value = %d, want 5", got)
	}
}

func TestStatsCounters(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)
	if r := h.setInt(1, refs[1], 1); !r.Committed {
		t.Fatal("write failed")
	}
	st := h.site(1).Stats()
	if st.Submitted == 0 || st.Commits == 0 || st.MessagesSent == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

func TestTooManyRetries(t *testing.T) {
	// A transaction that always programs success but always conflicts is
	// hard to build deterministically; instead verify the budget wiring
	// with MaxRetries=1 and a transaction forced to conflict by a rigged
	// reservation at the primary.
	net := transport.NewNetwork(transport.Config{})
	defer net.Close()
	ep1, _ := net.Endpoint(1)
	ep2, _ := net.Endpoint(2)
	s1 := NewSite(ep1, Options{MaxRetries: 1})
	s2 := NewSite(ep2, Options{MaxRetries: 1})
	s1.Start()
	s2.Start()
	defer s1.Stop()
	defer s2.Stop()

	ref1, _ := s1.CreateObject(KindInt, "x", int64(0))
	ref2, _ := s2.CreateObject(KindInt, "x", int64(0))
	if res := s2.JoinObject(ref2, 1, ref1.ID()).Wait(); !res.Committed {
		t.Fatalf("join: %+v", res)
	}

	// Rig: reserve a huge write-free interval at the primary (site 1)
	// owned by a fake transaction, so every write from site 2 conflicts.
	_ = s1.call(func() {
		o := ref1.o
		o.res.Reserve(vtime.Interval{Lo: vtime.Zero, Hi: vtime.VT{Time: 1 << 40, Site: 1}}, vtime.VT{Time: 1 << 41, Site: 1})
	})

	res := s2.Submit(&Txn{Execute: func(tx *Tx) error {
		v, _ := tx.Read(ref2)
		return tx.Write(ref2, v.(int64)+1)
	}}).Wait()
	if res.Err == nil {
		t.Fatalf("result = %+v, want retry exhaustion", res)
	}
}
