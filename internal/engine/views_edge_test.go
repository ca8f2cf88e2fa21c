package engine

import (
	"sync"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// Edge cases of the view-notification protocol (paper §4) beyond the
// happy paths in views_test.go.

func TestAttachRequiresUpdateCallback(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	ref, _ := h.site(1).CreateObject(KindInt, "x", int64(0))
	if _, err := h.site(1).AttachView([]ObjRef{ref}, Optimistic, ViewFuncs{}); err == nil {
		t.Fatal("attach without Update callback succeeded")
	}
}

func TestOptimisticCommitQuiescence(t *testing.T) {
	// "An optimistic view gets a commit notification only when the system
	// quiesces" (paper §4.1): under a rapid burst, intermediate snapshots
	// are superseded; after the burst, exactly the final state is shown
	// and a commit notification arrives for it.
	h := newHarness(t, 2, transport.Config{Latency: 5 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	rec := &recorder{}
	if _, err := h.site(2).AttachView([]ObjRef{refs[2]}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}

	const burst = 5
	var handles []*Handle
	for k := 1; k <= burst; k++ {
		v := int64(k)
		handles = append(handles, h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
			return tx.Write(refs[2], v)
		}}))
	}
	for _, hd := range handles {
		if r := hd.Wait(); !r.Committed {
			t.Fatalf("burst write failed: %+v", r)
		}
	}
	h.eventually(2*time.Second, "final state shown and committed", func() bool {
		ups, commits := rec.snapshot()
		if len(ups) == 0 || commits == 0 {
			return false
		}
		return ups[len(ups)-1].Values[refs[2].ID()] == int64(burst)
	})
}

func TestOptimisticViewWithoutCommitCallback(t *testing.T) {
	// Commit is optional on optimistic views.
	h := newHarness(t, 1, transport.Config{})
	ref, _ := h.site(1).CreateObject(KindInt, "x", int64(0))
	var mu sync.Mutex
	var last int64 = -1
	_, err := h.site(1).AttachView([]ObjRef{ref}, Optimistic, ViewFuncs{
		Update: func(d SnapshotData) {
			mu.Lock()
			last, _ = d.Values[ref.ID()].(int64)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := h.setInt(1, ref, 1); !res.Committed {
		t.Fatal("write failed")
	}
	// Delivery is lossy (latest-only), so assert on the observed value.
	h.eventually(time.Second, "update delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return last == 1
	})
}

func TestPessimisticMultiObjectAtomicity(t *testing.T) {
	// A transaction updating two attached objects yields ONE pessimistic
	// notification showing both new values (snapshots are atomic,
	// paper §2.5) — never a torn snapshot with one old and one new value
	// from the same transaction... except values written at distinct VTs
	// by different transactions, which arrive as separate snapshots.
	h := newHarness(t, 2, transport.Config{Latency: 2 * time.Millisecond})
	a := h.joined(KindInt, "a", int64(0), 1, 2)
	b := h.joined(KindInt, "b", int64(0), 1, 2)

	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{a[1], b[1]}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}

	for k := 1; k <= 5; k++ {
		v := int64(k)
		if res := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
			if err := tx.Write(a[2], v); err != nil {
				return err
			}
			return tx.Write(b[2], v)
		}}).Wait(); !res.Committed {
			t.Fatalf("write %d failed", k)
		}
	}
	h.eventually(3*time.Second, "final notification", func() bool {
		ups, _ := rec.snapshot()
		if len(ups) == 0 {
			return false
		}
		last := ups[len(ups)-1]
		return last.Values[a[1].ID()] == int64(5) && last.Values[b[1].ID()] == int64(5)
	})
	// Atomicity: in every snapshot the two values are equal (they are
	// always written together).
	ups, _ := rec.snapshot()
	for i, u := range ups {
		av, bv := u.Values[a[1].ID()], u.Values[b[1].ID()]
		if av != bv {
			t.Fatalf("torn snapshot %d: a=%v b=%v", i, av, bv)
		}
	}
}

func TestLostUpdateAccounting(t *testing.T) {
	// A straggler update older than the current optimistic snapshot is
	// counted as lost, not notified (paper §4.1, §5.1.2): site 3's write
	// dawdles on its way to site 1 and arrives after site 2's newer
	// write has already been shown there.
	h := newHarness(t, 3, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		if from == 3 && to == 1 {
			return 40 * time.Millisecond
		}
		return time.Millisecond
	}})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{refs[1]}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	before := h.site(1).Stats().LostUpdates

	// Site 3 writes once (slow link to site 1); site 2 then writes five
	// times, so its final virtual time strictly exceeds site 3's — when
	// 33 finally reaches site 1 it is a straggler below the shown value.
	h3 := h.setInt2Async(3, refs[3], 33)
	time.Sleep(5 * time.Millisecond)
	for v := int64(21); v <= 25; v++ {
		if r := h.setInt(2, refs[2], v); !r.Committed {
			t.Fatalf("w%d: %+v", v, r)
		}
	}
	if r := h3.Wait(); !r.Committed {
		t.Fatalf("w3: %+v", r)
	}

	h.eventually(3*time.Second, "straggler counted lost", func() bool {
		return h.site(1).Stats().LostUpdates > before
	})
	// The view's final state is the newest value; the straggler's value
	// was never separately notified after the newer one.
	h.eventually(3*time.Second, "final value is the newest", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) > 0 && ups[len(ups)-1].Values[refs[1].ID()] == int64(25)
	})
	ups, _ := rec.snapshot()
	saw25 := false
	for _, u := range ups {
		if u.Values[refs[1].ID()] == int64(25) {
			saw25 = true
		}
		if saw25 && u.Values[refs[1].ID()] == int64(33) {
			t.Fatal("straggler notified after the newer value (should be lost)")
		}
	}
}

func TestPessimisticViewUnreplicatedHearsEveryCommit(t *testing.T) {
	// A pessimistic view on an object that only this site hosts must
	// still wait for a pending lower writer (paper §4.2, lossless): the
	// site is that object's primary. Transaction A writes u and the
	// replicated r, so it waits on r's primary at site 1; B overwrites u
	// and, touching only u, commits at once. A snapshot for B delivered
	// before A commits would leave A's snapshot below the watermark.
	h := newHarness(t, 2, transport.Config{Latency: 20 * time.Millisecond})
	r := h.joined(KindInt, "r", int64(0), 1, 2)
	u, err := h.site(2).CreateObject(KindInt, "u", int64(0))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	if _, err := h.site(2).AttachView([]ObjRef{u}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	a := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		if err := tx.Write(u, int64(1)); err != nil {
			return err
		}
		return tx.Write(r[2], int64(1))
	}})
	<-a.Applied()
	b := h.setInt2Async(2, u, 2)
	resA, resB := a.Wait(), b.Wait()
	if !resA.Committed || !resB.Committed {
		t.Fatalf("A: %+v, B: %+v", resA, resB)
	}
	h.eventually(3*time.Second, "the notification of B", func() bool {
		v, ok := rec.lastValue(u.ID())
		return ok && v == int64(2)
	})
	ups, _ := rec.snapshot()
	var seen []vtime.VT
	heardA := false
	for _, up := range ups {
		seen = append(seen, up.TS)
		heardA = heardA || up.TS == resA.VT && up.Values[u.ID()] == int64(1)
	}
	if !heardA {
		t.Fatalf("view never heard A (%v writing u=1); it heard %v", resA.VT, seen)
	}
}
