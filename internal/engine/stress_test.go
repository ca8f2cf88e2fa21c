package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"decaf/internal/transport"
)

// TestEventLoopStress drives N sites x M submitting goroutines over both
// disjoint objects (each goroutine owns one, so batches mix Writes of
// independent transactions) and one shared hot object (read-modify-writes
// that conflict, abort, and retry). It asserts convergence of every
// replica and the counter identities from the observability subsystem:
//
//	Submitted      == Commits + ProgrammedAborts + abandoned
//	ConflictAborts == Retries + abandoned
//
// Run it with -race: submitters, the event loops and the notifiers all
// run at once.
func TestEventLoopStress(t *testing.T) {
	h, observers := newObsHarness(t, 3, transport.Config{}, Options{})

	const (
		nDisjoint = 6
		workers   = 3
		perWorker = 20
	)
	sites := []int{1, 2, 3}

	disjoint := make([]map[int]ObjRef, nDisjoint)
	for k := 0; k < nDisjoint; k++ {
		disjoint[k] = h.joined(KindInt, fmt.Sprintf("d%d", k), int64(0), 1, 2, 3)
	}
	shared := h.joined(KindInt, "hot", int64(0), 1, 2, 3)

	var (
		mu        sync.Mutex
		abandoned = map[int]uint64{}
	)
	var wg sync.WaitGroup
	for _, i := range sites {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				own := disjoint[(i*workers+w)%nDisjoint][i]
				hot := shared[i]
				for n := 0; n < perWorker; n++ {
					var txn *Txn
					if n%4 == 3 {
						txn = &Txn{Name: "rmw", Execute: func(tx *Tx) error {
							v, err := tx.Read(hot)
							if err != nil {
								return err
							}
							c, _ := v.(int64)
							return tx.Write(hot, c+1)
						}}
					} else {
						v := int64(i*1000 + w*100 + n)
						txn = &Txn{Name: "set", Execute: func(tx *Tx) error {
							return tx.Write(own, v)
						}}
					}
					res := h.site(i).Submit(txn).Wait()
					switch {
					case res.Committed:
					case errors.Is(res.Err, ErrTooManyRetries):
						mu.Lock()
						abandoned[i]++
						mu.Unlock()
					default:
						t.Errorf("site %d worker %d txn %d: %+v", i, w, n, res)
						return
					}
				}
			}(i, w)
		}
	}
	wg.Wait()

	h.eventually(10*time.Second, "all sites quiescent", func() bool {
		for _, i := range sites {
			if !h.noPendingTxns(i) {
				return false
			}
		}
		return true
	})
	h.eventually(10*time.Second, "replicas converged", func() bool {
		for k := 0; k < nDisjoint; k++ {
			v1 := h.committedInt(1, disjoint[k][1])
			if v1 != h.committedInt(2, disjoint[k][2]) || v1 != h.committedInt(3, disjoint[k][3]) {
				return false
			}
		}
		s1 := h.committedInt(1, shared[1])
		return s1 == h.committedInt(2, shared[2]) && s1 == h.committedInt(3, shared[3])
	})

	for _, i := range sites {
		st := h.site(i).Stats()
		if st.Submitted != st.Commits+st.ProgrammedAborts+abandoned[i] {
			t.Errorf("site %d: Submitted=%d != Commits=%d + ProgrammedAborts=%d + abandoned=%d",
				i, st.Submitted, st.Commits, st.ProgrammedAborts, abandoned[i])
		}
		if st.ConflictAborts != st.Retries+abandoned[i] {
			t.Errorf("site %d: ConflictAborts=%d != Retries=%d + abandoned=%d",
				i, st.ConflictAborts, st.Retries, abandoned[i])
		}
		if v, ok := observers[i].Metrics().Value("decaf_engine_batches_total"); !ok || v == 0 {
			t.Errorf("site %d: no event-loop batches recorded", i)
		}
	}
}

// TestBatchCoalescingUnderLatency checks that the batched loop actually
// coalesces outbound messages: with several transactions submitted
// before the first round trip completes, at least some sends must
// piggyback on a shared batch flush.
func TestBatchCoalescingUnderLatency(t *testing.T) {
	h, observers := newObsHarness(t, 2, transport.Config{Latency: 2 * time.Millisecond}, Options{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	const txns = 40
	handles := make([]*Handle, 0, txns)
	for n := 0; n < txns; n++ {
		v := int64(n)
		ref := refs[2]
		handles = append(handles, h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
			return tx.Write(ref, v)
		}}))
	}
	for _, hd := range handles {
		if res := hd.Wait(); !res.Committed {
			t.Fatalf("txn failed: %+v", res)
		}
	}
	coalesced := 0.0
	for _, i := range []int{1, 2} {
		if v, ok := observers[i].Metrics().Value("decaf_engine_coalesced_sends_total"); ok {
			coalesced += v
		}
	}
	if coalesced == 0 {
		t.Error("no outbound messages were coalesced across 40 concurrent txns")
	}
}
