package engine

import (
	"fmt"
	"time"

	"decaf/internal/consensus"
	"decaf/internal/history"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Client-failure handling (paper §3.4). Failures are fail-stop: the
// transport notifies survivors and blocks further communication with the
// failed site. Three duties follow:
//
//  1. In-flight transactions whose ORIGINATING site failed are resolved by
//     querying the surviving sites: if any received a summary COMMIT the
//     transaction commits everywhere, else it aborts.
//  2. Transactions waiting on a failed PRIMARY site abort; they are
//     retried after the graph repair commits (the retry is parked).
//  3. Replication graphs drop the failed site's nodes. When the graph's
//     primary survives, it coordinates an ordinary timestamped graph
//     update. When the primary itself failed, the circularity (a primary
//     is a function of the graph, but committing the new graph needs a
//     primary) is broken by a consensus round among survivors.
//
// The consensus round is a single-decree Paxos instance per failed site
// (internal/consensus, DESIGN.md §14). Its member set is the pre-failure
// graph membership minus the failed site — NOT filtered by this site's
// local failure suspicions, so every survivor derives the same members
// and the same majority quorum even when their `failed` sets diverge.
// That quorum is what prevents split-brain: two sites that each believe
// they are the lowest survivor still propose to the same member set, and
// at most one value can be chosen. Any survivor can take over a stalled
// repair with a higher ballot (rank-staggered takeover timers), which is
// what fixes the coordinator-death stall of the old epoch protocol. The
// decided value is only the failed site and the virtual time at which
// the repaired graphs apply; the failed originator's in-flight
// transactions are settled by duty 1's commit queries alone.

// Repair timing. All delays route through the injectable Scheduler so
// the deterministic simulator explores them as virtual-clock events.
const (
	// repairTakeoverDelay is the base delay before a non-proposing
	// member takes over a repair that has not decided; it is staggered
	// by member rank so survivors probe in a fixed order instead of
	// dueling.
	repairTakeoverDelay = 250 * time.Millisecond
	// repairBackoff is the base backoff before a proposer retries a
	// stalled or preempted attempt at a higher ballot.
	repairBackoff = 100 * time.Millisecond
)

// queryState tracks an outstanding commit-query for one orphaned
// transaction.
type queryState struct {
	st        *txnState
	waiting   map[vtime.SiteID]bool
	committed bool
}

// repairState tracks one in-flight consensus-backed graph repair (keyed
// by failed site).
type repairState struct {
	failed vtime.SiteID
	inst   *consensus.Instance[wire.RepairValue]
	// attempts counts proposal attempts (for retry backoff).
	attempts    int
	cancelTimer func()
}

// stopTimer stops the retry/takeover timer, if armed.
func (rs *repairState) stopTimer() {
	if rs.cancelTimer != nil {
		rs.cancelTimer()
		rs.cancelTimer = nil
	}
}

// parkedRetry is a transaction retry deferred until graph repair.
type parkedRetry struct {
	retry  func()
	handle *Handle
}

// handleSiteFailure reacts to a fail-stop notification.
func (s *Site) handleSiteFailure(f vtime.SiteID) {
	if s.failed[f] {
		return
	}
	s.failed[f] = true
	// Should f come back, it holds GC floors at zero until heard again.
	delete(s.peerFloors, f)
	s.log.Info("site failed", "failed", f.String())

	// (1) Resolve in-flight transactions originated at the failed site.
	// Iteration is VT-sorted so the resulting message schedule is
	// deterministic (see order.go).
	// (Deciding one transaction can retire others from s.txns: look
	// each up again.)
	for _, vt := range sortedVTs(s.txns) {
		if st, ok := s.txns[vt]; ok && st.origin == f && st.status == txnApplied {
			s.startCommitQuery(vt, st)
		}
	}
	// (1b) Prune the newly failed site from every outstanding
	// commit-query's waiting set — it will never answer, and a query
	// left waiting on it hangs forever (which also wedges quiescence:
	// PendingUndecided never reaches zero).
	for _, vt := range sortedVTs(s.commitQueries) {
		q, ok := s.commitQueries[vt]
		if !ok || !q.waiting[f] {
			continue
		}
		delete(q.waiting, f)
		s.maybeFinishCommitQuery(vt, q)
	}
	// (2) Abort local transactions waiting on the failed site.
	for _, vt := range sortedVTs(s.txns) {
		st, ok := s.txns[vt]
		if !ok || st.origin != s.id || st.status != txnWaiting {
			continue
		}
		if st.waitConfirms.has(f) || st.delegatedTo == f {
			st.parkOnAbort = true
			s.decide(st, false, textCause(fmt.Sprintf("primary site %s failed", f)))
		}
	}
	// (3) Repair replication graphs containing the failed site.
	s.repairGraphsFor(f)
	// (4) If the failed site was the expected proposer of some other
	// in-flight repair, the lowest remaining live member takes over
	// immediately instead of waiting out its takeover timer.
	for _, rf := range sortedSites(s.repairs) {
		rs, ok := s.repairs[rf]
		if !ok {
			continue
		}
		if _, done := rs.inst.Decided(); done {
			continue
		}
		if s.lowestLiveMember(rs.inst.Members()) == s.id && !rs.inst.Proposing() {
			s.repairPropose(rs)
		}
	}
}

// handleSiteRecovered reacts to the transport re-establishing contact
// with a previously suspected site: the engine stops treating it as
// dead so traffic flows again. Any §3.4 failover already performed
// (aborts, graph repair) stands — the recovered site must rejoin
// objects it was repaired out of, exactly like a restarted site. All
// repair state keyed by the recovered site is dropped, so a later
// failure of the same site starts a fresh consensus instance.
func (s *Site) handleSiteRecovered(f vtime.SiteID) {
	if !s.failed[f] {
		return
	}
	delete(s.failed, f)
	if rs, ok := s.repairs[f]; ok {
		rs.stopTimer()
		delete(s.repairs, f)
	}
	delete(s.repairDecided, f)
	s.log.Info("site recovered", "site", f.String())
	// Retries parked against the recovered primary can run again (if a
	// different failure still blocks them they re-park on the next
	// abort).
	s.unparkRetries()
}

// startCommitQuery polls survivors for knowledge of an orphaned
// transaction's outcome.
func (s *Site) startCommitQuery(vt vtime.VT, st *txnState) {
	// Survivors: every site hosting a replica of an object this
	// transaction updated here.
	waiting := map[vtime.SiteID]bool{}
	var buf objBuf
	for _, o := range st.appliedObjects(&buf) {
		g, _ := o.currentGraph()
		if g == nil {
			continue
		}
		for _, site := range g.Sites() {
			if site != s.id && !s.failed[site] {
				waiting[site] = true
			}
		}
	}
	if len(waiting) == 0 {
		// No one else to ask: no COMMIT can exist (the origin died
		// before distributing one we'd have seen); abort.
		s.decideOrphan(st, false)
		return
	}
	s.commitQueries[vt] = &queryState{st: st, waiting: waiting}
	for _, site := range sortedSites(waiting) {
		s.send(site, wire.CommitQuery{TxnVT: vt, From: s.id})
	}
}

// queryLateOrphan starts the commit query for a transaction whose
// updates applied here only after its originator was declared failed
// (relayed by anti-entropy, say): handleSiteFailure queried just the
// orphans present at the time. It runs once the updates have applied,
// since the query asks the replicas of the objects they touched.
func (s *Site) queryLateOrphan(st *txnState) {
	if s.failed[st.origin] && st.status == txnApplied && s.commitQueries[st.vt] == nil {
		s.startCommitQuery(st.vt, st)
	}
}

// decideOrphan settles one orphaned transaction with an explicit,
// WAL-logged outcome (the record makes crash recovery uniform: replay
// sees the decision like any other).
func (s *Site) decideOrphan(st *txnState, committed bool) {
	delete(s.commitQueries, st.vt)
	s.decide(st, committed, textCause("orphan"))
}

// maybeFinishCommitQuery completes a query whose waiting set shrank:
// commit if any survivor saw a COMMIT, abort once no survivor is left
// to ask.
func (s *Site) maybeFinishCommitQuery(vt vtime.VT, q *queryState) {
	if q.committed {
		s.decideOrphan(q.st, true)
		return
	}
	if len(q.waiting) == 0 {
		s.decideOrphan(q.st, false)
	}
}

// handleCommitQuery answers with this site's knowledge of the outcome.
func (s *Site) handleCommitQuery(from vtime.SiteID, m wire.CommitQuery) {
	committed, known := s.outcomes.get(m.TxnVT)
	s.send(from, wire.CommitQueryReply{TxnVT: m.TxnVT, From: s.id, Known: known, Committed: committed})
}

// handleCommitQueryReply collects survivor knowledge; when every survivor
// answered, the transaction commits if anyone saw a COMMIT, else aborts.
func (s *Site) handleCommitQueryReply(m wire.CommitQueryReply) {
	q, ok := s.commitQueries[m.TxnVT]
	if !ok {
		return
	}
	delete(q.waiting, m.From)
	if m.Known && !m.Committed {
		// A known abort decides immediately.
		s.decideOrphan(q.st, false)
		return
	}
	if m.Known && m.Committed {
		q.committed = true
	}
	s.maybeFinishCommitQuery(m.TxnVT, q)
}

// repairGraphsFor drops the failed site from every affected local
// replication graph, via a normal primary-coordinated transaction or via
// survivor consensus when the primary itself failed.
func (s *Site) repairGraphsFor(f vtime.SiteID) {
	needConsensus := false
	var consensusSites map[vtime.SiteID]bool
	for _, id := range sortedObjectIDs(s.objects) {
		o := s.objects[id]
		if o.graph == nil || len(o.graph.RemoveSiteDryRun(f)) == 0 {
			continue
		}
		primarySite, ok := o.graph.PrimarySite()
		if !ok {
			continue
		}
		if primarySite == f {
			needConsensus = true
			if consensusSites == nil {
				consensusSites = map[vtime.SiteID]bool{}
			}
			// Member set: the PRE-FAILURE graph membership minus the
			// failed site, deliberately NOT filtered by s.failed. Local
			// suspicions diverge across survivors; the member set (and
			// with it the quorum) must not.
			for _, site := range o.graph.Sites() {
				if site != f {
					consensusSites[site] = true
				}
			}
			continue
		}
		if primarySite == s.id {
			// This site hosts the surviving primary: coordinate an
			// ordinary timestamped graph-update transaction.
			obj := o
			repaired := obj.graph.Clone()
			repaired.RemoveSiteContract(f)
			repaired = repaired.Component(obj.id)
			// Engine-initiated, so it bypasses Submit: counted on its
			// own counter to keep the quiescent accounting identity
			// (Submitted + InternalTxns balance against decisions).
			s.stats.InternalTxns.Add(1)
			s.execute(&Txn{
				Name: "graph-repair",
				Execute: func(tx *Tx) error {
					tx.writeGraphUpdate(obj, repaired)
					return nil
				},
			}, newHandle(), 0)
		}
	}
	if !needConsensus {
		return
	}
	s.startConsensusRepair(f, sortedSites(consensusSites))
}

// startConsensusRepair creates the consensus instance for repairing f's
// graphs (idempotent). The lowest live member proposes immediately;
// everyone else arms a rank-staggered takeover timer so a dead or
// stalled proposer cannot wedge the repair.
func (s *Site) startConsensusRepair(f vtime.SiteID, members []vtime.SiteID) {
	if _, done := s.repairDecided[f]; done {
		return
	}
	if s.repairs[f] != nil {
		return
	}
	rs := s.newRepair(f, members)
	s.log.Debug("repair instance", "failed", f.String(), "members", fmt.Sprint(rs.inst.Members()), "quorum", rs.inst.Quorum())
	if s.lowestLiveMember(rs.inst.Members()) == s.id {
		s.repairPropose(rs)
		return
	}
	s.armRepairTimer(rs, s.repairTakeoverDelayFor(rs))
}

// ensureRepair returns the repair instance for f, instantiating an
// acceptor from a message's member list when this site has not yet run
// its own failure handling for f. The takeover timer is armed so even a
// pure acceptor eventually drives the repair if the proposer dies.
func (s *Site) ensureRepair(f vtime.SiteID, members []vtime.SiteID) *repairState {
	if rs := s.repairs[f]; rs != nil {
		return rs
	}
	rs := s.newRepair(f, members)
	s.armRepairTimer(rs, s.repairTakeoverDelayFor(rs))
	return rs
}

// newRepair installs the repair instance for f over members.
func (s *Site) newRepair(f vtime.SiteID, members []vtime.SiteID) *repairState {
	rs := &repairState{failed: f, inst: consensus.New[wire.RepairValue](s.id, members)}
	s.repairs[f] = rs
	return rs
}

// lowestLiveMember returns the first member this site does not suspect
// failed (0 if none) — the member expected to propose first.
func (s *Site) lowestLiveMember(members []vtime.SiteID) vtime.SiteID {
	for _, m := range members {
		if !s.failed[m] {
			return m
		}
	}
	return 0
}

// repairRank is this site's index in the (sorted) member set.
func (s *Site) repairRank(rs *repairState) int {
	for i, m := range rs.inst.Members() {
		if m == s.id {
			return i
		}
	}
	return len(rs.inst.Members())
}

// repairTakeoverDelayFor staggers takeover by member rank: lower-ranked
// survivors move first, so concurrent takeovers (and the ballot duels
// they cause) only happen when the schedule actually separates members.
func (s *Site) repairTakeoverDelayFor(rs *repairState) time.Duration {
	return repairTakeoverDelay * time.Duration(1+s.repairRank(rs))
}

// repairBackoffFor backs a proposer off after a stalled or preempted
// attempt, scaled by both attempt count and rank so two survivors that
// each believe they lead eventually desynchronize.
func (s *Site) repairBackoffFor(rs *repairState) time.Duration {
	return repairBackoff * time.Duration(1+rs.attempts) * time.Duration(1+s.repairRank(rs))
}

// armRepairTimer (re)arms the retry/takeover timer. The callback posts
// into the event loop and no-ops if the repair instance was replaced or
// decided in the meantime.
func (s *Site) armRepairTimer(rs *repairState, d time.Duration) {
	rs.stopTimer()
	if s.repairs[rs.failed] != rs {
		return
	}
	if _, done := rs.inst.Decided(); done {
		return
	}
	f := rs.failed
	rs.cancelTimer = s.opts.Scheduler.AfterFunc(d, func() {
		s.do(func() { s.repairTimerFired(f, rs) })
	})
}

// repairTimerFired drives a repair that has not decided: take over (or
// retry) with a fresh, higher ballot.
func (s *Site) repairTimerFired(f vtime.SiteID, rs *repairState) {
	if s.repairs[f] != rs {
		return
	}
	if _, done := rs.inst.Decided(); done {
		return
	}
	rs.attempts++
	if rs.inst.Proposing() {
		// Our own attempt stalled: some member never answered (lost
		// message, or dead and not yet suspected locally).
		s.stats.RepairQuorumFailures.Inc()
	}
	s.repairPropose(rs)
}

// repairPropose starts (or restarts) a proposal attempt for rs at a
// ballot above everything observed, and re-arms the retry timer.
func (s *Site) repairPropose(rs *repairState) {
	s.stats.RepairBallots.Inc()
	sends := rs.inst.Propose()
	if sends == nil {
		return // already decided
	}
	s.log.Debug("repair propose", "failed", rs.failed.String(), "ballot", rs.inst.Ballot().String())
	for _, sd := range sends {
		s.sendRepairMsg(rs, sd.To, sd.Msg)
	}
	// Self-loopback sends above re-enter the handlers synchronously and
	// may already have decided a single-member instance.
	s.armRepairTimer(rs, s.repairBackoffFor(rs))
}

// sendRepairMsg translates one kernel message into its wire form and
// sends it. Prepare and Accept carry the member set so receivers can
// instantiate identical acceptors.
func (s *Site) sendRepairMsg(rs *repairState, to vtime.SiteID, m consensus.Msg[wire.RepairValue]) {
	f := rs.failed
	switch m.Kind {
	case consensus.Prepare:
		s.send(to, wire.RepairPrepare{FailedSite: f, From: s.id, Ballot: m.Ballot, Members: rs.inst.Members()})
	case consensus.Promise:
		s.send(to, wire.RepairPromise{
			FailedSite:     f,
			From:           s.id,
			Ballot:         m.Ballot,
			OK:             m.OK,
			Promised:       m.Promised,
			HasAccepted:    m.HasAccepted,
			AcceptedBallot: m.AcceptedBallot,
			Accepted:       m.Value,
		})
	case consensus.Accept:
		s.send(to, wire.RepairAccept{FailedSite: f, From: s.id, Ballot: m.Ballot, Value: m.Value, Members: rs.inst.Members()})
	case consensus.Accepted:
		s.send(to, wire.RepairAccepted{FailedSite: f, From: s.id, Ballot: m.Ballot, OK: m.OK, Promised: m.Promised})
	case consensus.Learn:
		s.send(to, wire.RepairLearn{FailedSite: f, From: s.id, Ballot: m.Ballot, Value: m.Value})
	}
}

// stepRepair applies one kernel step: send its messages, then react to
// the state transition it reports.
func (s *Site) stepRepair(rs *repairState, st consensus.Step[wire.RepairValue]) {
	for _, sd := range st.Sends {
		s.sendRepairMsg(rs, sd.To, sd.Msg)
	}
	if st.Decided {
		s.finishRepair(rs)
		return
	}
	if st.Preempted {
		// A member is promised to a higher ballot: another survivor took
		// over. Back off and retry in case the new leader also dies.
		s.stats.RepairQuorumFailures.Inc()
		rs.attempts++
		s.armRepairTimer(rs, s.repairBackoffFor(rs))
		return
	}
	if st.PromiseQuorum {
		s.repairAccept(rs)
	}
}

// repairAccept moves the current attempt to phase 2 with this site's
// proposal: drop f from its graphs at a fresh virtual time. If a promise
// carried a previously accepted value, the kernel adopts that instead
// (Paxos safety — a possibly chosen value is never overwritten).
func (s *Site) repairAccept(rs *repairState) {
	v := wire.RepairValue{FailedSite: rs.failed, GraphVT: s.clock.Next()}
	for _, sd := range rs.inst.AcceptValue(v) {
		s.sendRepairMsg(rs, sd.To, sd.Msg)
	}
}

// handleRepairPrepare is consensus phase 1a at an acceptor.
func (s *Site) handleRepairPrepare(m wire.RepairPrepare) {
	if v, ok := s.repairDecided[m.FailedSite]; ok {
		// Already decided here: short-circuit the late proposer.
		s.send(m.From, wire.RepairLearn{FailedSite: m.FailedSite, From: s.id, Value: v})
		return
	}
	rs := s.ensureRepair(m.FailedSite, m.Members)
	s.stepRepair(rs, rs.inst.Handle(m.From, consensus.Msg[wire.RepairValue]{
		Kind:   consensus.Prepare,
		Ballot: m.Ballot,
	}))
}

// handleRepairPromise is consensus phase 1b at the proposer.
func (s *Site) handleRepairPromise(m wire.RepairPromise) {
	rs := s.repairs[m.FailedSite]
	if rs == nil {
		return
	}
	s.stepRepair(rs, rs.inst.Handle(m.From, consensus.Msg[wire.RepairValue]{
		Kind:           consensus.Promise,
		Ballot:         m.Ballot,
		OK:             m.OK,
		Promised:       m.Promised,
		HasAccepted:    m.HasAccepted,
		AcceptedBallot: m.AcceptedBallot,
		Value:          m.Accepted,
	}))
}

// handleRepairAccept is consensus phase 2a at an acceptor.
func (s *Site) handleRepairAccept(m wire.RepairAccept) {
	if v, ok := s.repairDecided[m.FailedSite]; ok {
		s.send(m.From, wire.RepairLearn{FailedSite: m.FailedSite, From: s.id, Value: v})
		return
	}
	rs := s.ensureRepair(m.FailedSite, m.Members)
	s.stepRepair(rs, rs.inst.Handle(m.From, consensus.Msg[wire.RepairValue]{
		Kind:   consensus.Accept,
		Ballot: m.Ballot,
		Value:  m.Value,
	}))
}

// handleRepairAccepted is consensus phase 2b at the proposer.
func (s *Site) handleRepairAccepted(m wire.RepairAccepted) {
	rs := s.repairs[m.FailedSite]
	if rs == nil {
		return
	}
	s.stepRepair(rs, rs.inst.Handle(m.From, consensus.Msg[wire.RepairValue]{
		Kind:     consensus.Accepted,
		Ballot:   m.Ballot,
		OK:       m.OK,
		Promised: m.Promised,
	}))
}

// handleRepairLearn installs a decided repair broadcast by whichever
// member first saw the phase-2 quorum.
func (s *Site) handleRepairLearn(m wire.RepairLearn) {
	if _, ok := s.repairDecided[m.FailedSite]; ok {
		return // duplicate
	}
	rs := s.repairs[m.FailedSite]
	if rs == nil {
		// No local instance (e.g. this site never noticed the failure):
		// adopt the decision directly.
		s.recordRepairDecision(m.Value)
		return
	}
	s.stepRepair(rs, rs.inst.Handle(m.From, consensus.Msg[wire.RepairValue]{
		Kind:   consensus.Learn,
		Ballot: m.Ballot,
		Value:  m.Value,
	}))
}

// finishRepair retires a decided instance and applies its decision.
func (s *Site) finishRepair(rs *repairState) {
	v, ok := rs.inst.Decided()
	if !ok {
		return
	}
	if s.repairs[rs.failed] == rs {
		delete(s.repairs, rs.failed)
	}
	rs.stopTimer()
	s.recordRepairDecision(v)
}

// recordRepairDecision applies a repair decision exactly once.
func (s *Site) recordRepairDecision(v wire.RepairValue) {
	if _, ok := s.repairDecided[v.FailedSite]; ok {
		return
	}
	s.repairDecided[v.FailedSite] = v
	s.applyRepairDecision(v)
}

// applyRepairDecision executes a decided repair: log it durably, install
// the repaired graphs at the common virtual time, resume parked retries,
// and cascade into repairs that the new graphs now make possible. The
// failed originator's in-flight transactions are not touched here: their
// commit queries decide them.
func (s *Site) applyRepairDecision(v wire.RepairValue) {
	f := v.FailedSite
	s.log.Debug("repair decided", "failed", f.String(), "graphVT", v.GraphVT.String())
	s.clock.Observe(v.GraphVT)
	s.walLogRepair(v)
	s.installRepairedGraphs(v)
	s.unparkRetries()
	// Cascade: the repaired graphs may hand the primary role to another
	// already-failed site (the cascading-failure case). Re-run failure
	// handling for every other suspect so its repair — impossible while
	// this one was undecided — starts now. startConsensusRepair dedupes.
	for _, f2 := range sortedSites(s.failed) {
		if f2 != f {
			s.repairGraphsFor(f2)
		}
	}
}

// installRepairedGraphs installs the repaired replication graphs at the
// decision's common virtual time (also used by WAL replay).
func (s *Site) installRepairedGraphs(v wire.RepairValue) {
	for _, id := range sortedObjectIDs(s.objects) {
		o := s.objects[id]
		if o.graph == nil || len(o.graph.RemoveSiteDryRun(v.FailedSite)) == 0 {
			continue
		}
		if ps, ok := o.graph.PrimarySite(); !ok || ps != v.FailedSite {
			continue // repaired by its surviving primary, not by consensus
		}
		repaired := o.graph.Clone()
		repaired.RemoveSiteContract(v.FailedSite)
		repaired = repaired.Component(o.id)
		if err := o.graphHist.Insert(v.GraphVT, repaired, history.Committed); err == nil {
			o.graph = repaired
			o.graphVT = v.GraphVT
			s.log.Debug("repair installed", "obj", o.id.String(), "graph", repaired.String())
		} else {
			s.log.Debug("repair install failed", "obj", o.id.String(), "err", err.Error())
		}
	}
}

// writeGraphUpdate records a replication-graph update inside a
// transaction (surviving-primary repair, paper §3.4).
func (tx *Tx) writeGraphUpdate(o *object, ng *repgraph.Graph) {
	// The update must reach the members of the graph as it stood before
	// this change (e.g. the site being left), so the targets are
	// captured now.
	tx.writeGraphUpdateTargets(o, ng, o.replicationRoot().graph.Clone())
}

// writeGraphUpdateTargets is writeGraphUpdate with an explicit target set
// (a direct-propagation refresh must reach both the old members and the
// newly collected counterparts).
func (tx *Tx) writeGraphUpdateTargets(o *object, ng, targets *repgraph.Graph) {
	op := wire.OpGraph{Graph: ng.ToWire()}
	root := o.replicationRoot()
	// Both the addressing path and the graph times are captured BEFORE
	// the local apply: adopting the new graph may change o's replication
	// root (a promotion), which would change what pathFromRoot computes.
	path := o.pathFromRoot()
	tx.st.addWrite(writeRec{
		obj:          o,
		readVT:       root.graphVT,
		graphVT:      root.graphVT,
		ops:          []wire.Op{op},
		targetGraph:  targets,
		pathOverride: &path,
	})
	tx.s.applyOp(tx.st, o, nil, op, history.Pending)
	tx.st.hasGraphOp = true
}

// unparkRetries resubmits transactions parked on a failed primary.
func (s *Site) unparkRetries() {
	parked := s.parked
	s.parked = nil
	s.stats.ParkedRetries.Set(0)
	for _, p := range parked {
		s.stats.Retries.Add(1)
		h := p.handle
		s.enqueue(p.retry, func() { h.finish(Result{Err: ErrSiteStopped}) })
	}
}
