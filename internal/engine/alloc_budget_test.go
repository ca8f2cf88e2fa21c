package engine

import (
	"testing"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// Allocation budgets: heap allocations per transaction, summed over the
// three sites of steppedCluster (origin, primary and replica), tracing
// off. Each is what the engine reaches today; a change that allocates
// more per transaction fails TestAllocationBudget and must either remove
// the allocation or raise the budget on purpose (DESIGN.md, "Allocation
// budget").
const (
	// budgetDelegatedRMW: a read-modify-write at site 2 of an Int whose
	// primary is site 1, replicated at site 3. The origin delegates the
	// decision to the primary, which tells the replica and the origin.
	budgetDelegatedRMW = 13
	// budgetFastAdd: a commutative Add at site 2, committed there and
	// shipped as FastWrites.
	budgetFastAdd = 11
	// budgetPessimisticView: budgetDelegatedRMW on an object that carries
	// a pessimistic view at its primary site.
	budgetPessimisticView = 19
	// budgetOptimisticView: the same under an optimistic view.
	budgetOptimisticView = 20
)

// steppedCluster is n never-started sites over a zero-latency in-memory
// network. Nothing runs unless the test steps a site, so the process's
// allocation count covers exactly the work a transaction causes.
type steppedCluster struct {
	t     *testing.T
	sites []*Site // 1-based
}

func newSteppedCluster(t *testing.T, n int) *steppedCluster {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	c := &steppedCluster{t: t, sites: make([]*Site, n+1)}
	for i := 1; i <= n; i++ {
		ep, err := net.Endpoint(vtime.SiteID(i))
		if err != nil {
			t.Fatal(err)
		}
		c.sites[i] = NewSite(ep, Options{})
	}
	t.Cleanup(func() {
		for _, s := range c.sites[1:] {
			s.Stop()
		}
		net.Close()
	})
	return c
}

// round runs one batch at every site that has work, and reports whether
// any had.
func (c *steppedCluster) round() bool {
	progress := false
	for _, s := range c.sites[1:] {
		if s.Step() {
			progress = true
		}
	}
	return progress
}

// wait steps the cluster until h has finished and every site is idle.
func (c *steppedCluster) wait(h *Handle) Result {
	c.t.Helper()
	for len(h.done) == 0 {
		if !c.round() {
			c.t.Fatal("sites idle with the transaction unfinished")
		}
	}
	for c.round() {
	}
	return <-h.done
}

// replicated creates an Int at primary and joins a replica of it from
// every other site. It returns the refs by site.
func (c *steppedCluster) replicated(primary int, desc string) []ObjRef {
	c.t.Helper()
	refs := make([]ObjRef, len(c.sites))
	ref, err := c.sites[primary].CreateObject(KindInt, desc, int64(0))
	if err != nil {
		c.t.Fatal(err)
	}
	refs[primary] = ref
	for i := 1; i < len(c.sites); i++ {
		if i == primary {
			continue
		}
		r, err := c.sites[i].CreateObject(KindInt, desc, int64(0))
		if err != nil {
			c.t.Fatal(err)
		}
		if res := c.wait(c.sites[i].JoinObject(r, vtime.SiteID(primary), ref.ID())); !res.Committed {
			c.t.Fatalf("join from site %d: %+v", i, res)
		}
		refs[i] = r
	}
	return refs
}

// allocsPerTxn runs txn at site origin until the cluster is idle,
// warming up first, and returns the average allocations of one run.
func (c *steppedCluster) allocsPerTxn(origin int, txn *Txn) float64 {
	c.t.Helper()
	run := func() {
		if res := c.wait(c.sites[origin].Submit(txn)); !res.Committed {
			c.t.Fatalf("transaction %s did not commit: %+v", txn.Name, res)
		}
	}
	// Warm-up: grow every reused buffer to its steady-state size.
	for range 64 {
		run()
	}
	return testing.AllocsPerRun(200, run)
}

// rmwTxn reads *ref and writes the next value. The values stay below
// 256, which Go boxes without allocating, so every allocation counted is
// the engine's.
func rmwTxn(ref *ObjRef) *Txn {
	return &Txn{Name: "rmw", Execute: func(tx *Tx) error {
		v, err := tx.Read(*ref)
		if err != nil {
			return err
		}
		return tx.Write(*ref, (v.(int64)+1)%256)
	}}
}

// TestAllocationBudget pins the heap allocations of one transaction,
// across every site it touches, on the guess/confirm path, the fast path
// and under each view mode.
func TestAllocationBudget(t *testing.T) {
	c := newSteppedCluster(t, 3)
	plain := c.replicated(1, "plain")
	pess := c.replicated(1, "pessimistic")
	opt := c.replicated(1, "optimistic")
	counter := c.replicated(1, "counter")
	noop := ViewFuncs{Update: func(SnapshotData) {}}
	if _, err := c.sites[1].AttachView([]ObjRef{pess[1]}, Pessimistic, noop); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sites[1].AttachView([]ObjRef{opt[1]}, Optimistic, noop); err != nil {
		t.Fatal(err)
	}
	for c.round() {
	}
	add := &Txn{Name: "add", Execute: func(tx *Tx) error { return tx.Add(counter[2], int64(1)) }}
	for _, tc := range []struct {
		name   string
		txn    *Txn
		budget float64
	}{
		{"delegated RMW", rmwTxn(&plain[2]), budgetDelegatedRMW},
		{"fast-path Add", add, budgetFastAdd},
		{"RMW under a pessimistic view", rmwTxn(&pess[2]), budgetPessimisticView},
		{"RMW under an optimistic view", rmwTxn(&opt[2]), budgetOptimisticView},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.t = t
			got := c.allocsPerTxn(2, tc.txn)
			t.Logf("%.1f allocations per transaction (budget %.0f)", got, tc.budget)
			if got > tc.budget {
				t.Errorf("%.1f allocations per transaction, budget %.0f", got, tc.budget)
			}
		})
	}
}

// TestQuiescentAfterBatchThatSent checks that Quiescent stays exact now
// that flushOutbox keeps each peer's emptied outbox slice for the next
// batch: a site whose batches sent, and that has nothing left to do,
// reports quiescent.
func TestQuiescentAfterBatchThatSent(t *testing.T) {
	c := newSteppedCluster(t, 3)
	refs := c.replicated(1, "x")
	if res := c.wait(c.sites[2].Submit(rmwTxn(&refs[2]))); !res.Committed {
		t.Fatalf("rmw: %+v", res)
	}
	for i, s := range c.sites[1:] {
		if s.Stats().MessagesSent == 0 {
			t.Fatalf("site %d sent nothing", i+1)
		}
		if !s.Quiescent() {
			t.Errorf("site %d is idle after sending but not quiescent", i+1)
		}
	}
}
