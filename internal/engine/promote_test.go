package engine

import (
	"reflect"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/wire"
)

// Tests for direct propagation of embedded objects (paper §3.2.2 and the
// Fig. 7 configuration: a node B embedded in a replicated tree whose own
// replica set differs from the tree's).

// buildSharedTree creates a 2-site replicated tuple with one Int child
// "b" and returns the tuple refs and the child refs at each site.
func buildSharedTree(t *testing.T, h *harness) (tup map[int]ObjRef, child map[int]ObjRef) {
	t.Helper()
	tup = h.joined(KindTuple, "tree", nil, 1, 2)
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		_, err := tx.TupleSet(tup[1], "b", wire.ChildDecl{Kind: KindInt, Value: int64(1)})
		return err
	}}).Wait(); !res.Committed {
		t.Fatalf("embed: %+v", res)
	}
	child = map[int]ObjRef{}
	for i := 1; i <= 2; i++ {
		i := i
		h.eventually(2*time.Second, "child materialized", func() bool {
			var ok bool
			_ = h.site(i).call(func() {
				if c := tup[i].o.liveChild("b"); c != nil {
					child[i] = ObjRef{o: c}
					ok = true
				}
			})
			return ok
		})
	}
	return tup, child
}

func TestPromoteGivesChildItsOwnGraph(t *testing.T) {
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	_, child := buildSharedTree(t, h)

	res := h.site(1).Promote(child[1]).Wait()
	if !res.Committed {
		t.Fatalf("promote: %+v", res)
	}
	// Both counterparts now carry their own (shared) graph.
	h.eventually(2*time.Second, "both counterparts direct", func() bool {
		ok := true
		for i := 1; i <= 2; i++ {
			i := i
			_ = h.site(i).call(func() {
				if child[i].o.graph == nil || child[i].o.graph.NumNodes() != 2 {
					ok = false
				}
			})
		}
		return ok
	})
	// The child's primary follows the tree's primary (site 1 anchored).
	p, _ := h.site(1).PrimarySite(child[1])
	if p != 1 {
		t.Fatalf("promoted child primary = %v, want 1", p)
	}
}

func TestPromoteIsIdempotent(t *testing.T) {
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	_, child := buildSharedTree(t, h)
	if res := h.site(1).Promote(child[1]).Wait(); !res.Committed {
		t.Fatalf("first promote: %+v", res)
	}
	if res := h.site(1).Promote(child[1]).Wait(); !res.Committed {
		t.Fatalf("second promote: %+v", res)
	}
	// Promoting a standalone object is a no-op success.
	top, _ := h.site(1).CreateObject(KindInt, "x", int64(0))
	if res := h.site(1).Promote(top).Wait(); !res.Committed {
		t.Fatalf("standalone promote: %+v", res)
	}
}

func TestDirectChildUpdatesStillReachTree(t *testing.T) {
	// After promotion, updates to the child flow through ITS graph but
	// must still reach the counterparts inside the tree replicas.
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	tup, child := buildSharedTree(t, h)
	if res := h.site(1).Promote(child[1]).Wait(); !res.Committed {
		t.Fatalf("promote: %+v", res)
	}

	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.Write(child[1], int64(42))
	}}).Wait(); !res.Committed {
		t.Fatalf("child write: %+v", res)
	}
	h.eventually(2*time.Second, "tree replica sees direct update", func() bool {
		v, _ := h.site(2).ReadCommitted(tup[2])
		m, _ := v.(map[string]any)
		return m != nil && m["b"] == int64(42)
	})
}

func TestFig7EmbeddedNodeWithDifferentReplicaSet(t *testing.T) {
	// The Fig. 7 configuration: the tree is replicated at sites 1 and 2;
	// the embedded node B additionally collaborates with site 3 (which
	// has no copy of the tree). B must use direct propagation so its
	// updates reach B' (site 2, inside the tree) AND B'' (site 3,
	// standalone) — and so the originating site knows the totality of
	// involved sites at commit time.
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond})
	tup, child := buildSharedTree(t, h)

	outside, _ := h.site(3).CreateObject(KindInt, "B''", int64(0))
	// Joining the outside object to the embedded child auto-promotes it.
	if res := h.site(3).JoinObject(outside, 1, child[1].ID()).Wait(); !res.Committed {
		t.Fatalf("outside join: %+v", res)
	}

	h.eventually(2*time.Second, "child graph spans 3 sites", func() bool {
		sites, err := h.site(1).ReplicaSites(child[1])
		return err == nil && len(sites) == 3
	})

	// A write from the OUTSIDE member reaches both tree replicas.
	if res := h.site(3).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.Write(outside, int64(7))
	}}).Wait(); !res.Committed {
		t.Fatalf("outside write: %+v", res)
	}
	h.eventually(2*time.Second, "both tree replicas updated", func() bool {
		for i := 1; i <= 2; i++ {
			v, _ := h.site(i).ReadCommitted(tup[i])
			m, _ := v.(map[string]any)
			if m == nil || m["b"] != int64(7) {
				return false
			}
		}
		return true
	})

	// And a write from inside the tree reaches the outside member.
	if res := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.Write(child[2], int64(9))
	}}).Wait(); !res.Committed {
		t.Fatalf("inside write: %+v", res)
	}
	h.eventually(2*time.Second, "outside member updated", func() bool {
		v, _ := h.site(3).ReadCommitted(outside)
		return v == int64(9)
	})
}

// TestEmbeddedJoinerPromotesFirst is Fig. 7 seen from the other side:
// the embedded node itself joins an outside object. Its site promotes it
// first, and the join resumes as a continuation of the promotion.
func TestEmbeddedJoinerPromotesFirst(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond})
	_, child := buildSharedTree(t, h)

	outside, _ := h.site(3).CreateObject(KindInt, "B''", int64(0))
	if res := h.site(2).JoinObject(child[2], 3, outside.ID()).Wait(); !res.Committed {
		t.Fatalf("embedded join: %+v", res)
	}
	h.eventually(2*time.Second, "child graph spans 3 sites", func() bool {
		for _, r := range []struct {
			site int
			ref  ObjRef
		}{{1, child[1]}, {2, child[2]}, {3, outside}} {
			if sites, err := h.site(r.site).ReplicaSites(r.ref); err != nil || len(sites) != 3 {
				return false
			}
		}
		return true
	})
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.Write(child[1], int64(5))
	}}).Wait(); !res.Committed {
		t.Fatalf("tree write: %+v", res)
	}
	h.eventually(2*time.Second, "outside member updated", func() bool {
		v, _ := h.site(3).ReadCommitted(outside)
		return v == int64(5)
	})
}

func TestDirectChildSurvivesTreeGrowth(t *testing.T) {
	// "The parent node notifies the collaborating embedded node of all
	// changes to its replica graph": when a NEW site joins the tree, the
	// direct child's graph gains the new counterpart, and direct updates
	// reach it.
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond})
	tup, child := buildSharedTree(t, h)
	if res := h.site(1).Promote(child[1]).Wait(); !res.Committed {
		t.Fatalf("promote: %+v", res)
	}

	// Site 3 joins the TREE.
	t3, _ := h.site(3).CreateObject(KindTuple, "tree", nil)
	if res := h.site(3).JoinObject(t3, 1, tup[1].ID()).Wait(); !res.Committed {
		t.Fatalf("tree join: %+v", res)
	}
	h.eventually(3*time.Second, "structure copied to site 3", func() bool {
		v, _ := h.site(3).ReadCurrent(t3)
		m, _ := v.(map[string]any)
		return m != nil && m["b"] != nil
	})

	// The refresh (triggered at the child's primary when the root graph
	// commit lands) must extend the child's graph to 3 sites.
	h.eventually(5*time.Second, "child graph refreshed to 3 sites", func() bool {
		sites, err := h.site(1).ReplicaSites(child[1])
		return err == nil && len(sites) == 3
	})

	// A direct child write now reaches the new tree member too.
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.Write(child[1], int64(55))
	}}).Wait(); !res.Committed {
		t.Fatalf("child write: %+v", res)
	}
	h.eventually(3*time.Second, "new member sees direct update", func() bool {
		v, _ := h.site(3).ReadCommitted(t3)
		m, _ := v.(map[string]any)
		return m != nil && m["b"] == int64(55)
	})
}

func TestPromotedChildStateConsistency(t *testing.T) {
	// Reads through the tree and through the direct child agree.
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	tup, child := buildSharedTree(t, h)
	if res := h.site(1).Promote(child[1]).Wait(); !res.Committed {
		t.Fatal("promote failed")
	}
	if res := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.Write(child[2], int64(11))
	}}).Wait(); !res.Committed {
		t.Fatal("write failed")
	}
	h.eventually(2*time.Second, "consistency across addressing modes", func() bool {
		direct, _ := h.site(1).ReadCommitted(child[1])
		viaTree, _ := h.site(1).ReadCommitted(tup[1])
		m, _ := viaTree.(map[string]any)
		return direct == int64(11) && m != nil && reflect.DeepEqual(m["b"], int64(11))
	})
}
