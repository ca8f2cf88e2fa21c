package engine

import (
	"context"
	"fmt"
	"log/slog"

	"decaf/internal/obs"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Deciding a transaction (paper §3.1, DESIGN.md §15). Exactly one site
// decides each transaction: its origin once every guess is confirmed (or
// at the first denial), the single remote primary it delegated to, the
// §3.4 orphan resolver when the origin failed, or — on the commutative
// fast path — the origin at once. That site calls decide, which logs the
// decision and tells the sites that must hear it. Every other site learns
// the decision from a message and calls learn. Both end in settle, which
// applies the decision locally, each step once, whatever the role.

// decide records this site's decision on st and tells whoever must hear
// it: an origin tells every involved site, a delegate the sites the origin
// named, a fast-path origin ships its FastWrites (they carry the commit),
// and an orphan resolver tells no one (each survivor resolves for itself).
func (s *Site) decide(st *txnState, committed bool, c *cause) {
	if st.decided() {
		return
	}
	if st.fast {
		s.shipFastWrites(st)
	} else {
		s.tellOutcome(st, committed)
	}
	s.settle(st, committed, c)
}

// tellOutcome logs the summary outcome this site decided and sends it.
func (s *Site) tellOutcome(st *txnState, committed bool) {
	if s.wal != nil {
		s.walAppendMsg(st.vt, wire.Outcome{TxnVT: st.vt, Committed: committed})
	}
	to := st.informs
	if st.isOrigin() {
		to = sortedSites(st.involved)
	} else if to != nil && s.obs.TraceEnabled() {
		detail := "commit"
		if !committed {
			detail = "abort"
		}
		s.trace(obs.EvDelegatedCommit, st.vt, st.origin, detail)
	}
	for _, site := range to {
		if site != s.id {
			s.send(site, wire.Outcome{TxnVT: st.vt, Committed: committed})
		}
	}
}

// learn settles a transaction decided elsewhere: a summary Outcome, a
// FastWrite (committed on arrival), or an update whose commit this site
// already knew. A decision for a transaction whose updates have not
// arrived is only recorded; they apply with it when they do (paper §3.1).
func (s *Site) learn(vt vtime.VT, committed bool) {
	st, ok := s.txns[vt]
	if ok && !st.decided() {
		// At an origin, a decision from elsewhere is its delegate's.
		s.settle(st, committed, delegateDenied)
		return
	}
	s.outcomes[vt] = committed
	if !ok {
		s.resolveRC(vt, committed)
	}
}

// settle applies a decision at this site: the outcome; the applied
// updates committed, or undone with their reservations released; the RC
// continuations waiting on it; the views; the graph-op hooks and GC; stats
// and trace. At the origin it also logs the origin's own updates and
// reports to the submitter: the Handle's result, or the retry.
func (s *Site) settle(st *txnState, committed bool, c *cause) {
	origin := st.isOrigin()
	st.status = txnAborted
	if committed {
		st.status = txnCommitted
	}
	s.outcomes[st.vt] = committed
	st.sentMsgs = nil
	// Collected before an undo empties st.applied: the views watching
	// these objects must rerun against the reverted state.
	objs := st.appliedObjects()
	if committed {
		st.commitApplied()
	} else {
		s.undoApplied(st)
		s.releaseReservations(st)
	}
	if origin && committed && s.wal != nil {
		s.walOwnUpdates(st)
	}
	s.resolveRC(st.vt, committed)
	if committed {
		s.onLocalCommit(objs, st.vt)
		if st.fast {
			s.demoteGuessesFor(objs, st.vt)
		}
		if st.hasGraphOp {
			s.unparkRetries()
			s.afterGraphCommit(st)
		}
		for _, o := range objs {
			s.maybeGC(o)
		}
	} else {
		s.onLocalAbort(objs)
	}

	if !origin {
		if !committed {
			s.trace(obs.EvAbort, st.vt, st.origin, "remote")
			return
		}
		s.obs.ObserveSince(s.stats.RemoteCommitLatency, st.appliedWall)
		detail := "remote"
		if st.fast {
			detail = "fastpath"
		}
		s.trace(obs.EvCommit, st.vt, st.origin, detail)
		return
	}
	if !committed {
		s.stats.ConflictAborts.Add(1)
		if s.obs.TraceEnabled() {
			s.trace(obs.EvAbort, st.vt, 0, c.String())
		}
		s.retry(st, c)
		return
	}
	s.stats.Commits.Add(1)
	detail := ""
	switch {
	case st.fast:
		s.stats.FastpathCommits.Add(1)
		detail = "fastpath"
	case st.delegatedTo != 0:
		detail = "delegated"
	}
	s.trace(obs.EvCommit, st.vt, 0, detail)
	s.stats.CommitLatencyVT.Observe(float64(s.clock.Now().Time - st.vt.Time))
	if st.handle != nil {
		s.obs.ObserveSince(s.stats.CommitLatency, st.handle.submittedWall)
		st.handle.finish(Result{Committed: true, Retries: st.retries, VT: st.vt})
	}
}

// retry applies the one retry policy after an abort at the origin (paper
// §2.4): a protocol transaction without a retry path fails; a
// transaction out of attempts fails; one that depends on a failed
// primary parks until the graph repair commits (§3.4); any other
// re-executes at once.
func (s *Site) retry(st *txnState, c *cause) {
	h := st.handle
	if h == nil {
		return
	}
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("abort", "txn", st.vt.String(), "reason", c.String())
	}
	if st.txn == nil && st.retryFn == nil {
		h.finish(Result{Err: fmt.Errorf("%w: %s", ErrAborted, c), Retries: st.retries, VT: st.vt})
		return
	}
	if st.retries+1 > s.opts.MaxRetries {
		h.finish(Result{Err: fmt.Errorf("%w (%d attempts)", ErrTooManyRetries, st.retries+1), Retries: st.retries, VT: st.vt})
		return
	}
	txn, retryFn, attempts := st.txn, st.retryFn, st.retries+1
	again := func() { s.execute(txn, h, attempts) }
	if retryFn != nil {
		again = func() { retryFn(attempts) }
	}
	if st.parkOnAbort {
		// The transaction depends on a failed primary site: defer the
		// retry until the graph repair commits (paper §3.4: "it is
		// retried later after the graph update has committed").
		s.parked = append(s.parked, parkedRetry{retry: again, handle: h})
		s.stats.ParkedRetries.Set(int64(len(s.parked)))
		return
	}
	s.stats.Retries.Add(1)
	s.trace(obs.EvReExecute, st.vt, 0, "")
	s.enqueue(again, func() { h.finish(Result{Err: ErrSiteStopped}) })
}

// isOrigin reports whether st is this site's own execution of the
// transaction rather than the replica state built from updates that
// arrived (which is also what replaying this site's own log builds). It
// holds until the transaction is decided.
func (st *txnState) isOrigin() bool {
	return st.status == txnExecuting || st.status == txnWaiting
}

// afterGraphCommit refreshes direct-propagation children of composites
// whose replica sets just changed (paper §3.2.2: "The parent node
// notifies the collaborating embedded node of all changes to its replica
// graph").
func (s *Site) afterGraphCommit(st *txnState) {
	for _, o := range st.graphObjs {
		if o.isComposite() {
			s.refreshDirectChildren(o)
		}
	}
}

// undoApplied rolls back locally applied updates in reverse order.
func (s *Site) undoApplied(st *txnState) {
	for i := len(st.applied) - 1; i >= 0; i-- {
		st.applied[i].undo()
	}
	st.applied = nil
}

// releaseReservations frees primary-copy reservations held by st at this
// site.
func (s *Site) releaseReservations(st *txnState) {
	for _, obj := range st.reservedObjs {
		obj.res.Release(st.vt)
		obj.replicationRoot().graphRes.Release(st.vt)
	}
	st.reservedObjs = nil
}

// resolveRC fires the RC continuations waiting on vt's outcome.
func (s *Site) resolveRC(vt vtime.VT, committed bool) {
	waiters := s.rcWaiters[vt]
	delete(s.rcWaiters, vt)
	for _, w := range waiters {
		w(committed)
	}
}
