package engine

// The commutative fast path. A transaction whose updates are all provably
// commutative — counter adds (OpAdd), add-wins association inserts
// (OpAssocInsert), stable-position list inserts (OpListInsertAfter) — and
// whose read set is empty cannot fail the paper's §3.1 guess checks in any
// serialization: every interleaving of such ops merges to the same state.
// It therefore skips guess creation, RL/NC reservation, and the confirm
// exchange entirely: it commits locally at its VT stamp and propagates as
// already-confirmed over FastWrite, applied via deterministic merge on
// receipt.
//
// Coexistence with guessed transactions is the delicate part. A fast-path
// commit at vtF landing inside another transaction's reserved write-free
// interval (tR, tT] invalidates that RL guess; the guess is DEMOTED to
// re-validation (aborted and retried at its origin, which re-reads the
// merged value). In the other direction, fast-path versions sit in the
// object history like any other version, so a later guess over them is
// denied by the ordinary RL scan — the primary accounts for
// confirmed-on-arrival versions it never reserved.
//
// INVARIANT (enforced by the decaf-vet fastpath analyzer): functions in
// this file never call into the reservation/confirm machinery — no
// Reserve, no Conflicts, no checkAtPrimary, no checkGuess, no propagate.
// The fast path stays fast, and honest, by construction. It does call
// address, which every sender shares (ship.go): address only says where
// a write goes and applies sibling replicas; it validates and reserves
// nothing.

import (
	"fmt"

	"decaf/internal/history"
	"decaf/internal/obs"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// addDelta adds an OpAdd delta to a previous numeric value (nil reads as
// the kind's zero). It is also the history-layer fold of a counter add.
func addDelta(prev, delta any) any {
	switch d := delta.(type) {
	case int64:
		n, _ := prev.(int64)
		return n + d
	case float64:
		f, _ := prev.(float64)
		return f + d
	}
	return prev
}

// foldRel is the history-layer fold of one add-wins relationship insert:
// delta is the wire.OpAssocInsert, which the update already boxes.
func foldRel(prev, delta any) any {
	rels, _ := prev.([]wire.Relationship)
	return mergeRelationships(rels, delta.(wire.OpAssocInsert).Rel)
}

// mergeRelationships inserts rel into rels, replacing a same-name entry
// (deterministic under concurrency: versions recompute in VT order, so the
// greatest-VT insert of a name wins at every replica).
func mergeRelationships(rels []wire.Relationship, rel wire.Relationship) []wire.Relationship {
	out := make([]wire.Relationship, 0, len(rels)+1)
	replaced := false
	for _, r := range rels {
		if r.Name == rel.Name {
			out = append(out, rel)
			replaced = true
			continue
		}
		out = append(out, r)
	}
	if !replaced {
		out = append(out, rel)
	}
	return out
}

// isCommutativeOp reports whether op commutes with every concurrent
// instance of the commutative op set.
func isCommutativeOp(op wire.Op) bool {
	switch op.(type) {
	case wire.OpAdd, wire.OpAssocInsert, wire.OpListInsertAfter:
		return true
	default:
		return false
	}
}

// tryFastPath classifies st at the end of local execution. When every
// update is commutative and there is nothing to check — no reads, no RC
// dependencies, no graph ops, no join machinery — it commits the
// transaction on the fast path and returns true; the caller then skips
// propagate() entirely.
func (s *Site) tryFastPath(st *txnState) bool {
	if s.opts.DisableFastPath || st.denied {
		return false
	}
	if len(st.writes) == 0 || len(st.reads) != 0 || len(st.rcDeps) != 0 ||
		st.extraPending != 0 || st.hasGraphOp {
		return false
	}
	for _, w := range st.writes {
		// Protocol-level overrides (leaves, promotions) and non-blind
		// writes carry context a merge cannot express.
		if w.targetGraph != nil || w.pathOverride != nil || w.readVT != st.vt {
			return false
		}
		if len(w.ops) == 0 {
			return false
		}
		for _, op := range w.ops {
			if !isCommutativeOp(op) {
				return false
			}
		}
	}
	st.fast = true
	s.decide(st, true, nil)
	return true
}

// shipFastWrites sends a fast-path commit to the other replicas as
// already-confirmed FastWrites (merging it straight into any sibling
// replica at this site): the FastWrite is both the update and the
// decision, so there is no reservation, no confirm exchange and no
// summary outcome.
func (s *Site) shipFastWrites(st *txnState) {
	var out fanout
	for _, w := range st.writes {
		s.address(st, w, history.Committed, &out)
	}
	for _, m := range out.all() {
		s.trace(obs.EvPropagate, st.vt, m.site, "fastpath")
		s.send(m.site, wire.FastWrite{TxnVT: st.vt, Origin: s.id, Floor: s.combinedGCFloor(), Updates: m.updates})
	}
}

// handleFastWrite applies a remote fast-path transaction: the updates are
// already confirmed, so they merge in as committed versions at once (see
// handleWrite).
func (s *Site) handleFastWrite(m wire.FastWrite) {
	s.handleWrite(wire.Write{TxnVT: m.TxnVT, Origin: m.Origin, Updates: m.Updates}, true)
}

// demoteGuessesFor finds open RL reservations on the given objects whose
// write-free interval contains the fast-path commit vt, and demotes their
// guesses to re-validation: the reserved interval was promised write-free,
// and the fast-path version just landed inside it. A local guess aborts
// and retries here (re-reading the merged value); a remote guess gets its
// confirmation retracted via a transient denial, which its origin treats
// as a conflict abort + retry if the transaction is still undecided.
func (s *Site) demoteGuessesFor(objs []*object, vt vtime.VT) {
	for _, obj := range objs {
		// Primary-side sweep: open reservations whose interval contains
		// the fast commit.
		for _, owner := range obj.res.Intersecting(vt, vt) {
			if _, decided := s.outcomes.get(owner); decided {
				continue
			}
			reason := fmt.Sprintf("demoted: fast-path commit %s inside reserved interval of %s", vt, owner)
			s.stats.FastpathDemotions.Add(1)
			if st2, ok := s.txns[owner]; ok && st2.origin == s.id && st2.status == txnWaiting {
				s.decide(st2, false, textCause(reason))
				continue
			}
			if owner.Site != s.id {
				// Retract the confirmation. If the origin already decided
				// (the commit raced the retraction), the fast version still
				// merged deterministically everywhere; the demotion only
				// closes the window for still-undecided guesses.
				s.send(owner.Site, wire.Confirm{
					TxnVT: owner, OK: false, Transient: true, Reason: reason,
				})
			}
		}
		// Origin-side sweep: a pending version here whose write-free
		// interval (ReadVT, VT] contains the fast commit belongs to a
		// guess whose read the fast write just invalidated. If that guess
		// originated here and is still waiting, abort it before a stale
		// confirmation can commit it.
		// The guesses are collected first: deciding one changes the
		// history.
		var buf [4]vtime.VT
		for _, gvt := range obj.hist.AppendPendingReadsAcross(buf[:0], vt) {
			st2, ok := s.txns[gvt]
			if !ok || st2.origin != s.id || st2.status != txnWaiting {
				continue
			}
			s.stats.FastpathDemotions.Add(1)
			s.decide(st2, false, textCause(fmt.Sprintf("demoted: fast-path commit %s inside read interval of %s", vt, gvt)))
		}
	}
}
