package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/wire"
)

// Convergence properties: under arbitrary interleavings of conflicting
// transactions, message jitter, and mixed workloads, all replicas of every
// object must quiesce to identical committed values (the atomicity +
// total-order guarantee of paper §2.4), and pessimistic views must observe
// exactly the committed sequence in monotonic order (§4.2).

// convergenceScenario runs a randomized multi-site workload and checks
// quiescent equality of all replicas.
func convergenceScenario(t *testing.T, seed int64, nSites, nObjects, txnsPerSite int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// A bigger retry budget absorbs contention spikes on loaded CI
	// machines.
	h := newHarnessOpts(t, nSites, transport.Config{
		Latency: time.Millisecond,
		Jitter:  2 * time.Millisecond,
		Seed:    seed,
	}, Options{MaxRetries: 500})

	siteIdx := make([]int, nSites)
	for i := range siteIdx {
		siteIdx[i] = i + 1
	}
	objs := make([]map[int]ObjRef, nObjects)
	for k := range objs {
		// Randomize the anchor so primaries spread across sites.
		order := append([]int(nil), siteIdx...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		objs[k] = h.joined(KindInt, fmt.Sprintf("o%d", k), int64(0), order...)
	}

	var wg sync.WaitGroup
	for i := 1; i <= nSites; i++ {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < txnsPerSite; k++ {
				a := r.Intn(nObjects)
				b := r.Intn(nObjects)
				blind := r.Intn(2) == 0
				val := int64(r.Intn(1000))
				res := h.site(i).Submit(&Txn{Execute: func(tx *Tx) error {
					if blind {
						return tx.Write(objs[a][i], val)
					}
					// Read-modify-write across two objects.
					va, err := tx.Read(objs[a][i])
					if err != nil {
						return err
					}
					if err := tx.Write(objs[a][i], va.(int64)+1); err != nil {
						return err
					}
					return tx.Write(objs[b][i], va.(int64))
				}}).Wait()
				if !res.Committed && res.Err != nil {
					// Retry exhaustion is the only acceptable failure,
					// and only under extreme contention.
					t.Errorf("site %d txn failed: %+v", i, res)
					return
				}
			}
		}(i, seed+int64(i)*101)
	}
	wg.Wait()

	// Quiesce: all replicas of every object equal.
	h.eventually(10*time.Second, "replica convergence", func() bool {
		for k := range objs {
			var want any
			for _, i := range siteIdx {
				v, err := h.site(i).ReadCommitted(objs[k][i])
				if err != nil {
					return false
				}
				if want == nil {
					want = v
				} else if v != want {
					return false
				}
			}
		}
		return true
	})
}

func TestConvergenceTwoSites(t *testing.T) {
	convergenceScenario(t, 1, 2, 3, 15)
}

func TestConvergenceFourSites(t *testing.T) {
	convergenceScenario(t, 2, 4, 4, 10)
}

func TestConvergenceManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	for seed := int64(10); seed < 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			convergenceScenario(t, seed, 3, 2, 8)
		})
	}
}

// TestPessimisticViewExactCommittedSequence verifies losslessness: a
// pessimistic view at a third site receives one notification per
// committed update, in VT order, with no uncommitted values, under a
// concurrent two-writer workload.
func TestPessimisticViewExactCommittedSequence(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 5})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	rec := &recorder{}
	if _, err := h.site(3).AttachView([]ObjRef{refs[3]}, Pessimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}

	const perWriter = 10
	var wg sync.WaitGroup
	commitCount := make([]int, 3)
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				val := int64(w*1000 + k)
				res := h.site(w).Submit(&Txn{Execute: func(tx *Tx) error {
					return tx.Write(refs[w], val)
				}}).Wait()
				if res.Committed {
					commitCount[w-1]++
				}
			}
		}(w)
	}
	wg.Wait()

	total := commitCount[0] + commitCount[1]
	h.eventually(10*time.Second, "all committed updates notified", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) >= total // initial snapshot may add one
	})
	ups, _ := rec.snapshot()
	for i := 1; i < len(ups); i++ {
		if !ups[i-1].TS.Less(ups[i].TS) {
			t.Fatalf("notification %d out of order: %v then %v", i, ups[i-1].TS, ups[i].TS)
		}
		if !ups[i].Committed {
			t.Fatalf("notification %d not committed", i)
		}
	}
}

// TestCompositeConvergenceUnderConcurrentStructure mixes inserts, removes
// and child writes from all sites and checks structural convergence.
func TestCompositeConvergenceUnderConcurrentStructure(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 9})
	lists := h.joined(KindList, "L", nil, 1, 2, 3)

	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 10; k++ {
				op := r.Intn(3)
				res := h.site(i).Submit(&Txn{Execute: func(tx *Tx) error {
					n, err := tx.ListLen(lists[i])
					if err != nil {
						return err
					}
					switch {
					case op == 0 || n == 0:
						_, err := tx.ListAppend(lists[i], wire.ChildDecl{Kind: KindString, Value: fmt.Sprintf("s%d-%d", i, k)})
						return err
					case op == 1:
						return tx.ListRemove(lists[i], r.Intn(n))
					default:
						c, err := tx.ListGet(lists[i], r.Intn(n))
						if err != nil {
							return err
						}
						return tx.Write(c, fmt.Sprintf("edit%d-%d", i, k))
					}
				}}).Wait()
				if !res.Committed && res.Err != nil {
					t.Errorf("site %d structural txn failed: %+v", i, res)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	h.eventually(10*time.Second, "structural convergence", func() bool {
		v1, e1 := h.site(1).ReadCommitted(lists[1])
		v2, e2 := h.site(2).ReadCommitted(lists[2])
		v3, e3 := h.site(3).ReadCommitted(lists[3])
		return e1 == nil && e2 == nil && e3 == nil &&
			reflect.DeepEqual(v1, v2) && reflect.DeepEqual(v2, v3)
	})
}

// TestConvergenceWithMidRunFailure kills a site mid-workload; survivors
// must still converge.
func TestConvergenceWithMidRunFailure(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)

	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				val := int64(i*100 + k)
				h.site(i).Submit(&Txn{Execute: func(tx *Tx) error {
					return tx.Write(refs[i], val)
				}}).Wait()
				time.Sleep(time.Millisecond)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	h.net.Kill(3)
	wg.Wait()

	h.eventually(10*time.Second, "survivor convergence after failure", func() bool {
		v1, _ := h.site(1).ReadCommitted(refs[1])
		v2, _ := h.site(2).ReadCommitted(refs[2])
		sites1, _ := h.site(1).ReplicaSites(refs[1])
		return v1 == v2 && len(sites1) == 2
	})
}
