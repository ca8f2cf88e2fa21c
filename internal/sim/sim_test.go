package sim

import (
	"fmt"
	"testing"
)

// TestSimReplay pins determinism: the same (profile, seed) must produce
// a byte-identical event trace and final replica state across two
// independent runs. Any diff means a nondeterminism leak — an unsorted
// map iteration feeding the network, an unserialized RNG draw, a real
// timer — and the diff's first line points at the guilty event.
func TestSimReplay(t *testing.T) {
	cases := []struct {
		profile string
		seed    int64
	}{
		{"smoke", 1},
		{"smoke", 7},
		{"contend", 3},
		{"faulty", 2},
		{"faulty", 11},
		{"fastpath-faulty", 5},
		{"nofast", 4},
		// Weakly connected operation (§13): partition + false suspicion,
		// reconnect, anti-entropy. Pins that the WAL/sync machinery is
		// deterministic under the virtual clock.
		{"offline", 6},
		{"offline", 13},
		// Cascading failure (§14): the primary dies, then the repair
		// coordinator dies mid-ballot (seed 1: S2's RepairPrepare is in
		// flight when it is killed; S3 takes over with a higher ballot,
		// decides, and cascade-repairs S2). Pins that the consensus
		// takeover and the cascaded second repair replay exactly.
		{"cascade", 1},
		{"cascade", 9},
		// Regressions: seeds that found real engine bugs (DESIGN.md §12).
		{"fastpath-faulty", 93}, // drainPending re-entrancy stack overflow
		{"nofast", 107},         // duplicated Write re-folded into GC merge base
		// View contracts (§4), both regressions: an increment below the
		// newest version left the optimistic view stale (seed 39), and
		// drainPending dropped a list insert whose After element had not
		// arrived, so one replica diverged (seed 95).
		{"views", 39},
		{"views", 95},
		// A delegated denial: S1, deciding S2's 6@s2 as its delegate,
		// denies it, and S2 re-executes at once (paper §2.4).
		{"contend", 7},
		// Transactions left undecided (DESIGN.md §12, bug 8): an origin
		// resubmits its Writes after reconnecting, the primary has
		// already aborted the transaction, and a staged copy used to be
		// dropped unanswered where a serial one was answered.
		{"offline", 27},
		{"offline", 191},
		{"offline", 200},
		{"offline", 211},
		// A primary pruned at its own GC floor, below a Write still in
		// flight from a peer whose clock lagged (DESIGN.md §6): the Write
		// passed RL and NC against history and reservations already
		// gone. Seed 630 diverged replicas (ctr 7870 against 6899); seed
		// 99, with GC on, left a pessimistic view that never heard a
		// commit.
		{"offline", 630},
		{"views", 99},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/%d", tc.profile, tc.seed), func(t *testing.T) {
			p, ok := ProfileByName(tc.profile)
			if !ok {
				t.Fatalf("unknown profile %q", tc.profile)
			}
			a := Run(p, tc.seed)
			if a.Err != nil {
				t.Fatalf("seed %d failed invariants:\n%v\ntrace tail:\n%s",
					tc.seed, a.Err, traceTail(a.Trace, 30))
			}
			b := Run(p, tc.seed)
			if a.Trace != b.Trace {
				t.Fatalf("seed %d: traces differ across replays\nfirst diff:\n%s",
					tc.seed, firstDiff(a.Trace, b.Trace))
			}
			if a.Fingerprint != b.Fingerprint {
				t.Fatalf("seed %d: fingerprints differ:\n  %s\n  %s",
					tc.seed, a.Fingerprint, b.Fingerprint)
			}
			if a.Trace == "" || a.Fingerprint == "" {
				t.Fatalf("seed %d: empty trace or fingerprint", tc.seed)
			}
		})
	}
}

// TestExploreSweep is the in-tree slice of the exploration sweep: a few
// seeds per profile on every `go test`, more with -short off. The CI
// sim job runs the full 200+-seed budget through cmd/decaf-sim.
func TestExploreSweep(t *testing.T) {
	seeds := Seeds(100, 8)
	if testing.Short() {
		seeds = Seeds(100, 2)
	}
	failures := Explore(Profiles(), seeds)
	for _, f := range failures {
		t.Errorf("profile %s seed %d failed:\n%v\nreplay: go run ./cmd/decaf-sim -profile %s -replay %d\ntrace tail:\n%s",
			f.Profile, f.Seed, f.Err, f.Profile, f.Seed, traceTail(f.Trace, 30))
	}
}

// TestGVTSim drives the baseline GVT protocol under the virtual clock:
// per-site GVT estimates never regress (asserted inside RunGVT at every
// quiescent point) and committed registers converge. Replays must be
// byte-identical, same as the engine runs.
func TestGVTSim(t *testing.T) {
	p := GVTProfile{Name: "ring3", Sites: 3, Jitter: 4e6}
	for _, seed := range []int64{1, 2, 9} {
		a := RunGVT(p, seed)
		if a.Err != nil {
			t.Fatalf("gvt seed %d: %v\ntrace tail:\n%s", seed, a.Err, traceTail(a.Trace, 30))
		}
		b := RunGVT(p, seed)
		if a.Trace != b.Trace {
			t.Fatalf("gvt seed %d: traces differ\nfirst diff:\n%s", seed, firstDiff(a.Trace, b.Trace))
		}
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("gvt seed %d: fingerprints differ:\n  %s\n  %s", seed, a.Fingerprint, b.Fingerprint)
		}
	}
}
