package engine

import (
	"testing"
	"time"

	"decaf/internal/transport"
)

// TestFig45UpdatePropagation reproduces the paper's running example
// (Figs. 4 and 5): four sites; W and X replicated at sites 1, 2, 3 with
// primary site 1; Y and Z replicated at sites 2, 3, 4 with primary site 4.
// A transaction T initiated at site 2 reads W and X, blind-writes Y := 2,
// and read-writes Z := 9.
//
// Per §3.1: site 2 sends CONFIRM-READ for W, X to site 1; WRITE for Y, Z
// to sites 3 and 4; site 1 checks and reserves the read intervals; site 4
// checks RL and NC for Z (and NC for Y) and reserves; site 2 collects both
// confirmations and sends COMMIT to all other involved sites.
func TestFig45UpdatePropagation(t *testing.T) {
	h := newHarness(t, 4, transport.Config{Latency: 2 * time.Millisecond})

	// W, X rooted (anchored) at site 1, replicated at 1, 2, 3.
	w := h.joined(KindInt, "W", int64(4), 1, 2, 3)
	x := h.joined(KindInt, "X", int64(2), 1, 2, 3)
	// Y, Z rooted at site 4, replicated at 2, 3, 4.
	y := h.joined(KindInt, "Y", int64(3), 4, 2, 3)
	z := h.joined(KindInt, "Z", int64(6), 4, 2, 3)

	for name, tc := range map[string]struct {
		ref  ObjRef
		site int
		want int
	}{
		"W": {w[2], 2, 1}, "X": {x[2], 2, 1},
		"Y": {y[2], 2, 4}, "Z": {z[2], 2, 4},
	} {
		p, err := h.site(tc.site).PrimarySite(tc.ref)
		if err != nil || int(p) != tc.want {
			t.Fatalf("primary of %s = %v (err %v), want site %d", name, p, err, tc.want)
		}
	}

	msgsBefore := h.site(2).Stats().MessagesSent

	// Transaction T at site 2 (paper Fig. 4).
	res := h.site(2).Submit(&Txn{Name: "T", Execute: func(tx *Tx) error {
		if _, err := tx.Read(w[2]); err != nil { // read W
			return err
		}
		if _, err := tx.Read(x[2]); err != nil { // read X
			return err
		}
		if err := tx.Write(y[2], int64(2)); err != nil { // blind write Y = 2
			return err
		}
		zv, err := tx.Read(z[2]) // read Z
		if err != nil {
			return err
		}
		return tx.Write(z[2], zv.(int64)+3) // Z = 9
	}}).Wait()
	if !res.Committed {
		t.Fatalf("T: %+v", res)
	}
	if res.Retries != 0 {
		t.Fatalf("T retried %d times; topology should be settled", res.Retries)
	}

	// Exactly 3 protocol messages leave site 2 before commit: one
	// CONFIRM-READ (site 1), two WRITEs (sites 3, 4); then COMMITs to
	// the 3 involved sites. Total 6.
	// The COMMITs are counted when the batch that decided T flushes its
	// outbox, which can be after Wait returns.
	sent := func() uint64 { return h.site(2).Stats().MessagesSent - msgsBefore }
	h.eventually(2*time.Second, "T's 6 messages counted", func() bool { return sent() >= 6 })
	defer func() {
		if msgs := sent(); msgs != 6 {
			t.Errorf("site 2 sent %d messages, want 6 (1 CONFIRM-READ + 2 WRITE + 3 COMMIT)", msgs)
		}
	}()

	// All replicas converge.
	h.eventually(2*time.Second, "replica convergence", func() bool {
		for i := 2; i <= 4; i++ {
			if yv, _ := h.site(i).ReadCommitted(y[i]); yv != int64(2) {
				return false
			}
			if zv, _ := h.site(i).ReadCommitted(z[i]); zv != int64(9) {
				return false
			}
		}
		for i := 1; i <= 3; i++ {
			if wv, _ := h.site(i).ReadCommitted(w[i]); wv != int64(4) {
				return false
			}
		}
		return true
	})

	// Site 1 (primary of W, X) holds write-free reservations from T's
	// confirmed reads; site 4 (primary of Y, Z) from its writes. GC is
	// on, but a primary prunes only below the floors its graph's members
	// announced, and site 2 announced its last one on T's own messages,
	// below T.
	var res1, res4 int
	_ = h.site(1).call(func() {
		res1 = w[1].o.res.Len() + x[1].o.res.Len()
	})
	_ = h.site(4).call(func() {
		res4 = z[4].o.res.Len() // Y was a blind write: empty interval, no reservation
	})
	if res1 < 2 {
		t.Errorf("site 1 reservations = %d, want >= 2 (W and X read intervals)", res1)
	}
	if res4 < 1 {
		t.Errorf("site 4 reservations = %d, want >= 1 (Z's read-write interval)", res4)
	}
}

// TestFig5DelegatedCommit covers the optimization at the end of §3.1: when
// every object's primary is the same single remote site, the origin
// delegates the commit to it, which sends COMMIT directly to all sites.
func TestFig5DelegatedCommit(t *testing.T) {
	h := newHarness(t, 4, transport.Config{Latency: 2 * time.Millisecond})

	// All four objects rooted at site 3 (isomorphic replica graphs).
	w := h.joined(KindInt, "W", int64(4), 3, 1, 2)
	y := h.joined(KindInt, "Y", int64(3), 3, 2, 4)

	res := h.site(2).Submit(&Txn{Name: "T", Execute: func(tx *Tx) error {
		wv, err := tx.Read(w[2])
		if err != nil {
			return err
		}
		return tx.Write(y[2], wv.(int64)*10)
	}}).Wait()
	if !res.Committed {
		t.Fatalf("T: %+v", res)
	}

	// The transaction was delegated: commit arrived at the origin as an
	// Outcome from site 3, not decided locally. Observable effect: all
	// replicas converge and no Confirm round-trip was required.
	h.eventually(2*time.Second, "convergence", func() bool {
		for _, i := range []int{2, 3, 4} {
			if v, _ := h.site(i).ReadCommitted(y[i]); v != int64(40) {
				return false
			}
		}
		return true
	})
}

// TestCommitLatencyMultiples verifies §5.1.1's latency analysis shape: a
// transaction whose objects all have a remote primary commits in ~2t at
// the originating site, and a transaction whose single primary site is the
// origin commits immediately (well under t).
func TestCommitLatencyMultiples(t *testing.T) {
	const lat = 20 * time.Millisecond
	h := newHarness(t, 2, transport.Config{Latency: lat})

	remote := h.joined(KindInt, "r", int64(0), 1, 2) // primary at site 1
	local := h.joined(KindInt, "l", int64(0), 2, 1)  // primary at site 2

	// Remote primary: ~2t (WRITE out, CONFIRM back).
	start := time.Now()
	if res := h.setInt(2, remote[2], 5); !res.Committed {
		t.Fatalf("remote write: %+v", res)
	}
	elapsed := time.Since(start)
	if elapsed < 2*lat || elapsed > 3*lat {
		t.Errorf("remote-primary commit took %v, want ~2t = %v", elapsed, 2*lat)
	}

	// Origin is primary: immediate commit.
	start = time.Now()
	if res := h.setInt(2, local[2], 5); !res.Committed {
		t.Fatalf("local write: %+v", res)
	}
	elapsed = time.Since(start)
	if elapsed > lat/2 {
		t.Errorf("local-primary commit took %v, want immediate (<< t)", elapsed)
	}
}
