package engine

import (
	"testing"
	"time"

	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// TestCommitlessOptimisticViewAsksNothing attaches an optimistic view at
// site 2 to two objects whose primary copies are at site 1, once without
// and once with a commit() callback. Without one, the view gets its
// updates but sends no CONFIRM-READ and its snapshot does not hold the
// site's GC floor; a read of a value that later aborts still counts as an
// update inconsistency. With one, the view asks site 1 for every snapshot
// read below its VT and hears commit().
func TestCommitlessOptimisticViewAsksNothing(t *testing.T) {
	for _, withCommit := range []bool{false, true} {
		name := "commit-less"
		if withCommit {
			name = "with-commit"
		}
		t.Run(name, func(t *testing.T) {
			h, log := newLoggedHarness(t, 2, Options{MaxRetries: 1})
			a := h.joined(KindInt, "a", int64(0), 1, 2)
			b := h.joined(KindInt, "b", int64(0), 1, 2)
			c, err := h.site(2).CreateObject(KindInt, "c", int64(0))
			if err != nil {
				t.Fatal(err)
			}
			// a's newest version is above b's, so every snapshot reads b
			// below its VT: an RL guess at site 1.
			if res := h.setInt(2, a[2], 1); !res.Committed {
				t.Fatalf("write a: %+v", res)
			}
			h.eventually(time.Second, "site 1 committed a", func() bool { return h.committedInt(1, a[1]) == 1 })
			log.reset()

			rec := &recorder{}
			fns := rec.fns()
			if !withCommit {
				fns.Commit = nil
			}
			s2 := h.site(2)
			// Site 1 cannot answer the attach snapshot's CONFIRM-READ, so
			// a view that asks keeps its snapshot open.
			h.net.Partition(1, 2)
			vh, err := s2.AttachView([]ObjRef{a[2], b[2]}, Optimistic, fns)
			if err != nil {
				t.Fatal(err)
			}
			// A local transaction moves site 2's clock past the snapshot.
			if res := h.setInt(2, c, 1); !res.Committed {
				t.Fatalf("write c: %+v", res)
			}
			var ts, floor vtime.VT
			var holds bool
			_ = s2.call(func() {
				ts = vh.p.cur.ts
				_, holds = vh.p.minSnapshotVT()
				s2.invalidateGCFloor()
				floor = s2.combinedGCFloor()
			})
			if holds != withCommit || ts.Less(floor) == withCommit {
				t.Errorf("snapshot at %s holds the floor: %v (site floor %s), want %v", ts, holds, floor, withCommit)
			}
			h.net.Heal(1, 2)

			if res := h.setInt(2, a[2], 2); !res.Committed {
				t.Fatalf("write a: %+v", res)
			}
			h.eventually(time.Second, "update notification", func() bool {
				v, ok := rec.lastValue(a[2].ID())
				return ok && v == int64(2)
			})
			if withCommit {
				h.eventually(time.Second, "commit notification", func() bool {
					_, commits := rec.snapshot()
					return commits > 0
				})
			}

			// A write that site 1 denies: the view reads its value, which
			// then aborts.
			_ = h.site(1).call(func() {
				a[1].o.res.Reserve(vtime.Interval{Lo: vtime.Zero, Hi: vtime.VT{Time: 1 << 40, Site: 1}}, vtime.VT{Time: 1 << 41, Site: 1})
			})
			if res := s2.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(a[2], int64(3)) }}).Wait(); res.Err == nil {
				t.Fatalf("write against a foreign reservation: %+v, want an abort", res)
			}
			if n := s2.Stats().UpdateInconsistencies; n == 0 {
				t.Error("no update inconsistency counted for the aborted value the view read")
			}

			if got := log.sentAny(2, wire.ConfirmRead{}); got != withCommit {
				t.Errorf("site 2 sent a CONFIRM-READ: %v, want %v", got, withCommit)
			}
			if _, commits := rec.snapshot(); !withCommit && commits != 0 {
				t.Errorf("a view without commit() heard %d commits", commits)
			}
		})
	}
}
