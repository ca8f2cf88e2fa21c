package engine

import (
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// TestCommitQueryPrunesNewlyFailedSite pins the two-failure commit-query
// bug: a survivor's outstanding commit-query kept waiting for a reply
// from a site that failed AFTER the query started, so the orphaned
// transaction never decided (and the site never quiesced). The failure
// handler must prune the newly failed site from every waiting set and
// re-evaluate completion.
func TestCommitQueryPrunesNewlyFailedSite(t *testing.T) {
	h := newHarness(t, 4, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		// Every link touching site 3 is slow, so queries to it are still
		// outstanding when it dies.
		if from == 3 || to == 3 {
			return 100 * time.Millisecond
		}
		return 2 * time.Millisecond
	}})
	// Two relationships rooted at different sites give the transaction
	// two remote primaries (1 and 2), so delegated commit does not apply
	// and no single site can decide alone.
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3, 4)
	refsY := h.joined(KindInt, "y", int64(0), 2, 1, 3, 4)

	hd := h.site(4).Submit(&Txn{Execute: func(tx *Tx) error {
		if err := tx.Write(refs[4], int64(77)); err != nil {
			return err
		}
		return tx.Write(refsY[4], int64(88))
	}})
	<-hd.Applied()
	// Let the updates land at the fast survivors before the origin dies,
	// so they actually hold an undecided orphan.
	h.eventually(2*time.Second, "updates applied at sites 1 and 2", func() bool {
		return h.site(1).PendingUndecided() > 0 && h.site(2).PendingUndecided() > 0
	})
	h.net.Kill(4)

	// Sites 1 and 2 learn of the failure within ~2ms and start commit
	// queries whose waiting sets include slow site 3. Kill 3 before any
	// of its (~200ms round-trip) replies can arrive.
	time.Sleep(20 * time.Millisecond)
	h.net.Kill(3)

	h.eventually(5*time.Second, "orphan decided despite the second failure", func() bool {
		v1, _ := h.site(1).ReadCommitted(refs[1])
		v2, _ := h.site(2).ReadCommitted(refs[2])
		return v1 == v2 && h.noPendingTxns(1) && h.noPendingTxns(2)
	})
}

// TestRecoveredSiteRepairStateCleared: a site recovering after being
// repaired out must rejoin like a restarted site — no stale repair
// instance, decided-repair record, or parked-retry state may survive at
// the survivors, and the repair itself stands.
func TestRecoveredSiteRepairStateCleared(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3)
	if p, _ := h.site(2).PrimarySite(refs[2]); p != 1 {
		t.Fatalf("expected primary at site 1, got %v", p)
	}

	// False-positive suspicion: site 1 keeps running but survivors run
	// the §3.4 failover and repair it out by consensus.
	h.net.Suspect(1)
	h.eventually(3*time.Second, "repair committed at survivors", func() bool {
		for _, i := range []int{2, 3} {
			sites, err := h.site(i).ReplicaSites(refs[i])
			if err != nil || len(sites) != 2 {
				return false
			}
			for _, sid := range sites {
				if sid == 1 {
					return false
				}
			}
		}
		return true
	})

	h.net.Unsuspect(1)
	h.eventually(2*time.Second, "repair state cleared on recovery", func() bool {
		for _, i := range []int{2, 3} {
			s := h.site(i)
			clean := true
			_ = s.call(func() {
				_, decided := s.repairDecided[1]
				if s.failed[1] || s.repairs[1] != nil || decided || len(s.parked) != 0 {
					clean = false
				}
			})
			if !clean {
				return false
			}
		}
		return true
	})

	// The failover already performed stands: the survivors keep working
	// on the repaired graph (site 1 must rejoin explicitly, like a
	// restarted site).
	if res := h.setInt(2, refs[2], 5); !res.Committed {
		t.Fatalf("post-recovery write: %+v", res)
	}
	h.eventually(2*time.Second, "survivors converge", func() bool {
		v3, _ := h.site(3).ReadCommitted(refs[3])
		return v3 == int64(5)
	})
}

// TestCascadingCoordinatorFailure is the headline scenario: the primary
// dies mid-transaction, and then the survivor expected to coordinate the
// repair dies too. Under the old protocol the repair stalled forever
// (nobody re-proposed a dead coordinator's round). With consensus, the
// next survivor takes over with a higher ballot, the decided value
// settles the orphaned transaction (commit — survivor 3 saw its COMMIT),
// and the cascaded repair of the second failure follows.
func TestCascadingCoordinatorFailure(t *testing.T) {
	h := newHarnessOpts(t, 5, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		switch {
		case from == 2 && (to == 4 || to == 5):
			// Slow data links out of site 2, so its COMMIT broadcast is
			// still in flight (and is lost) when it dies.
			return 150 * time.Millisecond
		case (from == 2 && to == 1) || (from == 1 && to == 2):
			// A slow confirm round-trip widens the window between the
			// Write send and the Outcome send on the slow links.
			return 30 * time.Millisecond
		default:
			return 2 * time.Millisecond
		}
	}}, Options{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3, 4, 5)
	if p, _ := h.site(2).PrimarySite(refs[2]); p != 1 {
		t.Fatalf("expected primary at site 1, got %v", p)
	}
	// y's primary is site 3, so the transaction below has two remote
	// primaries: it is not delegated, and its origin broadcasts COMMIT.
	y := h.joined(KindInt, "y", int64(0), 3, 2)

	// A transaction from site 2 commits (confirmed by primaries 1 and 3);
	// its COMMIT reaches site 3 quickly but is still in flight to 4 and 5.
	hd := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		if err := tx.Write(y[2], int64(77)); err != nil {
			return err
		}
		return tx.Write(refs[2], int64(77))
	}})
	if res := hd.Wait(); !res.Committed {
		t.Fatalf("txn: %+v", res)
	}
	h.eventually(3*time.Second, "write applied at the slow sites", func() bool {
		v3, _ := h.site(3).ReadCommitted(refs[3])
		return v3 == int64(77) &&
			h.site(4).PendingUndecided() > 0 && h.site(5).PendingUndecided() > 0
	})

	// Kill the primary, then the repair coordinator (site 2 is the
	// lowest survivor, so every site expects it to lead the repair).
	h.net.Kill(1)
	h.net.Kill(2)

	// Survivors 3, 4, 5 must converge: site 3 takes over the repair of
	// site 1 with a higher ballot (quorum 3 of members {2,3,4,5}), the
	// repaired graph hands the primary role to dead site 2, and the
	// cascaded repair of site 2 (quorum 2 of members {3,4,5}) follows.
	// The orphaned transaction commits everywhere because survivor 3
	// saw its COMMIT.
	h.eventually(10*time.Second, "cascaded repairs converge", func() bool {
		for _, i := range []int{3, 4, 5} {
			sites, err := h.site(i).ReplicaSites(refs[i])
			if err != nil || len(sites) != 3 {
				return false
			}
			for _, sid := range sites {
				if sid == 1 || sid == 2 {
					return false
				}
			}
			v, _ := h.site(i).ReadCommitted(refs[i])
			if v != int64(77) {
				return false
			}
			if h.site(i).PendingUndecided() != 0 {
				return false
			}
		}
		return true
	})

	// The repaired graph elects a live primary; writes keep working.
	if res := h.setInt(4, refs[4], 99); !res.Committed {
		t.Fatalf("post-repair write: %+v", res)
	}
	h.eventually(3*time.Second, "post-repair convergence", func() bool {
		v3, _ := h.site(3).ReadCommitted(refs[3])
		v5, _ := h.site(5).ReadCommitted(refs[5])
		return v3 == int64(99) && v5 == int64(99)
	})

	// The takeover burned extra ballots; the counters saw it.
	if h.site(3).Stats().RepairBallots == 0 {
		t.Fatal("site 3 took over the repair but RepairBallots is 0")
	}
}

// TestParkedRetryRunsExactlyOnce: a non-commutative increment stuck
// waiting on a failed primary is aborted, parked, and — after the repair
// commits — retried exactly once. A double retry would double the
// increment; a lost retry would leave the old value.
func TestParkedRetryRunsExactlyOnce(t *testing.T) {
	h := newHarnessOpts(t, 3, transport.Config{LatencyFn: func(from, to vtime.SiteID) time.Duration {
		if from == 3 || to == 3 {
			return 50 * time.Millisecond // slow path to the primary
		}
		return 2 * time.Millisecond
	}}, Options{DisableFastPath: true})
	refs := h.joined(KindInt, "x", int64(0), 3, 1, 2)
	if p, _ := h.site(1).PrimarySite(refs[1]); p != 3 {
		t.Fatalf("expected primary at site 3, got %v", p)
	}

	hd := h.site(1).Submit(&Txn{
		Name:    "inc",
		Execute: func(tx *Tx) error { return tx.Add(refs[1], int64(5)) },
	})
	<-hd.Applied()
	h.net.Kill(3) // primary dies while the confirm is in flight

	res := hd.Wait()
	if !res.Committed {
		t.Fatalf("parked retry should eventually commit: %+v", res)
	}
	h.eventually(3*time.Second, "increment applied exactly once", func() bool {
		v1, _ := h.site(1).ReadCommitted(refs[1])
		v2, _ := h.site(2).ReadCommitted(refs[2])
		return v1 == int64(5) && v2 == int64(5)
	})
}

// TestMinorityPartitionCannotCommitRepair: the consensus quorum is
// derived from the pre-failure graph membership, so survivors cut off in
// a minority partition can propose all they want — they can never commit
// a repair, and no split-brain graph exists. After the partition heals,
// their next proposal is short-circuited by the majority's decided value.
func TestMinorityPartitionCannotCommitRepair(t *testing.T) {
	h := newHarness(t, 6, transport.Config{Latency: 2 * time.Millisecond})
	refs := h.joined(KindInt, "x", int64(0), 1, 2, 3, 4, 5, 6)
	if p, _ := h.site(2).PrimarySite(refs[2]); p != 1 {
		t.Fatalf("expected primary at site 1, got %v", p)
	}

	// Silently cut {5,6} off from {2,3,4}, then kill the primary. The
	// repair members are {2,3,4,5,6}, quorum 3: the majority side can
	// decide, the minority side cannot.
	minority := []vtime.SiteID{5, 6}
	majority := []vtime.SiteID{2, 3, 4}
	for _, a := range minority {
		for _, b := range majority {
			h.net.Partition(a, b)
		}
	}
	h.net.Kill(1)

	h.eventually(5*time.Second, "majority side repairs", func() bool {
		for _, i := range []int{2, 3, 4} {
			sites, err := h.site(i).ReplicaSites(refs[i])
			if err != nil || len(sites) != 5 {
				return false
			}
			for _, sid := range sites {
				if sid == 1 {
					return false
				}
			}
		}
		return true
	})

	// Give the minority time to fire its takeover timer and fail at
	// least one proposal attempt, then check it never committed.
	h.eventually(10*time.Second, "minority attempted and failed a takeover", func() bool {
		return h.site(5).Stats().RepairQuorumFailures > 0
	})
	for _, i := range []int{5, 6} {
		s := h.site(i)
		var decided bool
		_ = s.call(func() {
			_, decided = s.repairDecided[1]
		})
		var hasOne bool
		if sites, err := s.ReplicaSites(refs[i]); err == nil {
			for _, sid := range sites {
				if sid == 1 {
					hasOne = true
				}
			}
		}
		if decided {
			t.Fatalf("minority site %d committed a repair without a quorum", i)
		}
		if !hasOne {
			t.Fatalf("minority site %d installed a repaired graph without a quorum", i)
		}
	}

	// Heal: the minority's next proposal reaches the majority, which
	// answers with the decided value; everyone converges on ONE repair.
	for _, a := range minority {
		for _, b := range majority {
			h.net.Heal(a, b)
		}
	}
	h.eventually(15*time.Second, "minority adopts the majority's decision", func() bool {
		for _, i := range []int{2, 3, 4, 5, 6} {
			sites, err := h.site(i).ReplicaSites(refs[i])
			if err != nil || len(sites) != 5 {
				return false
			}
			for _, sid := range sites {
				if sid == 1 {
					return false
				}
			}
		}
		return true
	})

	// One consistent graph: writes commit and reach every survivor.
	if res := h.setInt(5, refs[5], 42); !res.Committed {
		t.Fatalf("post-heal write: %+v", res)
	}
	h.eventually(5*time.Second, "post-heal convergence", func() bool {
		for _, i := range []int{2, 3, 4, 6} {
			v, _ := h.site(i).ReadCommitted(refs[i])
			if v != int64(42) {
				return false
			}
		}
		return true
	})
}
