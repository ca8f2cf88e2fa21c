package engine

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"strconv"

	"decaf/internal/history"
	"decaf/internal/obs"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// ensureTxn returns (creating if needed) the local transaction
// implementation object for a remotely originated transaction.
func (s *Site) ensureTxn(vt vtime.VT, origin vtime.SiteID) *txnState {
	if st, ok := s.txns[vt]; ok {
		return st
	}
	st := &txnState{vt: vt, origin: origin, status: txnApplied}
	s.trackTxn(st)
	return st
}

// writeTask is one arriving Write (or FastWrite) on its way through
// handleWrite, on handleWrite's stack. A Write whose updates block on
// structure not yet received keeps a copy in the deferred check
// (finishWrite).
type writeTask struct {
	m  wire.Write
	st *txnState
	// status is Committed when the decision was known on arrival (a
	// FastWrite, or late updates of a committed transaction).
	status history.Status
	// applied0 is len(st.applied) on arrival: what this message applies
	// is st.applied[applied0:].
	applied0 int
	// blocked counts updates parked on structure not yet received.
	blocked int
	// verdict is the primary verdict, when one is owed.
	verdict verdict
}

// handleWrite applies a remote transaction's updates on the event loop
// (fast: a FastWrite, committed on arrival); when this site hosts a
// primary copy it also validates the RL/NC guesses and confirms (or, as
// delegate, decides the whole transaction).
func (s *Site) handleWrite(m wire.Write, fast bool) {
	var t writeTask
	if s.openWrite(m, fast, &t) {
		s.runWriteTask(&t)
		s.finishWrite(&t)
	}
}

// openWrite is the prologue of every arriving Write and FastWrite: it
// drops the late updates of an aborted transaction (paper §3.1), finds or
// creates the transaction's state here and notes in t what the message
// asks of this site. It returns false when there is nothing to apply.
func (s *Site) openWrite(m wire.Write, fast bool, t *writeTask) bool {
	if fast {
		// Committed on arrival. Recorded before anything applies, so an
		// update that blocks on unseen structure still applies as
		// committed when drainPending releases it.
		s.outcomes.set(m.TxnVT, true)
	}
	committed, decided := s.outcomes.get(m.TxnVT)
	if decided && !committed {
		// Answer a confirm request anyway, so a resubmitting origin
		// un-wedges.
		if m.NeedsConfirm {
			s.resendOutcome(m, false)
		}
		return false
	}
	st := s.ensureTxn(m.TxnVT, m.Origin)
	if st.appliedWall == 0 {
		st.appliedWall = s.obs.NowNanos()
	}
	if fast {
		st.fast = true
		s.trace(obs.EvApply, m.TxnVT, m.Origin, "fastpath")
	} else {
		s.trace(obs.EvApply, m.TxnVT, m.Origin, "")
	}
	if m.Delegate != nil {
		st.informs = m.Delegate
	}
	*t = writeTask{m: m, st: st, status: history.Pending, applied0: len(st.applied)}
	if decided {
		t.status = history.Committed // late updates of a committed transaction
	}
	return true
}

// runWriteTask applies a write's updates and, unless one of them blocked,
// runs the primary checks it owes.
func (s *Site) runWriteTask(t *writeTask) {
	for _, upd := range t.m.Updates {
		if s.applyUpdate(t.st, upd, t.status) {
			s.stats.UpdatesApplied.Add(1)
			continue
		}
		t.blocked++
		if root := s.objects[upd.Target]; root != nil {
			root.pending = append(root.pending, pendingIndirect{txnVT: t.m.TxnVT, origin: t.m.Origin, upd: upd})
		}
	}
	if t.blocked == 0 {
		s.checkWrite(t)
	}
}

// checkWrite runs the primary checks a write asks for, unless its
// transaction is already decided. Authorization monitors vet remote
// access before any guess check (paper §1); a denial aborts the
// transaction at its origin.
func (s *Site) checkWrite(t *writeTask) {
	if !t.m.NeedsConfirm || t.status != history.Pending {
		return
	}
	err := s.authorizeUpdates(t.m.Updates, t.st.origin)
	if err == nil {
		err = s.authorizeChecks(t.m.Checks, t.st.origin)
	}
	if err != nil {
		t.verdict = verdict{cause: textCause(err.Error())}
		return
	}
	t.verdict = s.checkAtPrimary(t.st, t.m.TxnVT, t.m.Updates, t.m.Checks)
}

// finishWrite is the epilogue of every Write and FastWrite: it marks the
// views that must see the new updates, settles a transaction whose commit
// this site already knew, and answers the primary check.
func (s *Site) finishWrite(t *writeTask) {
	st, m := t.st, t.m
	committed := t.status == history.Committed
	var buf objBuf
	s.noteApplied(st.appliedSince(t.applied0, &buf), m.TxnVT, committed)
	if committed {
		s.learn(m.TxnVT, true)
		if m.NeedsConfirm {
			s.resendOutcome(m, true)
		}
		return
	}
	if t.blocked > 0 {
		if m.NeedsConfirm {
			// Structural ops for some paths have not arrived; the check
			// (and any delegation) must wait until propagation unblocks
			// (paper §3.2.1).
			st.blockedRemaining = t.blocked
			held := *t // t lives on handleWrite's stack
			st.onUnblocked = func() {
				s.checkWrite(&held)
				s.answerWrite(&held)
			}
		}
		return // drainPending queries a late orphan once it applies
	}
	if m.NeedsConfirm {
		s.answerWrite(t)
	}
	s.queryLateOrphan(st)
}

// answerWrite delivers a primary's verdict on a write: a delegate decides
// the whole transaction on the origin's behalf (paper §3.1), any other
// primary confirms or denies to the origin.
func (s *Site) answerWrite(t *writeTask) {
	st, m, v := t.st, t.m, t.verdict
	if !v.ok && s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("primary denial", "txn", m.TxnVT.String(), "reason", v.cause.String())
	}
	s.traceCheck(m.TxnVT, m.Origin, v, len(st.reservedObjs))
	if m.Delegate != nil {
		s.decide(st, v.ok, v.cause)
		return
	}
	s.send(m.Origin, wire.Confirm{TxnVT: m.TxnVT, From: s.id, OK: v.ok, Transient: v.transient, Reason: v.cause.String()})
}

// traceCheck records a primary's verdict on transaction vt, requested by
// origin (0: this site), and on success the objects it holds reserved.
func (s *Site) traceCheck(vt vtime.VT, origin vtime.SiteID, v verdict, reserved int) {
	if !s.obs.TraceEnabled() {
		return
	}
	if !v.ok {
		s.trace(obs.EvPrimaryCheck, vt, origin, v.cause.String())
		return
	}
	s.trace(obs.EvPrimaryCheck, vt, origin, "ok")
	if reserved > 0 {
		s.trace(obs.EvReserve, vt, 0, strconv.Itoa(reserved)+" objects")
	}
}

// resendOutcome answers a confirm request from an already-recorded
// decision: a resubmitted Write (anti-entropy recovery of a lost
// confirmation, DESIGN.md §13) must not be re-validated — the re-check
// could spuriously deny a transaction that is committed system-wide. The
// origin treats the Outcome as the decision.
func (s *Site) resendOutcome(m wire.Write, committed bool) {
	to := []vtime.SiteID{m.Origin}
	if m.Delegate != nil {
		to = m.Delegate
	}
	for _, site := range to {
		s.send(site, wire.Outcome{TxnVT: m.TxnVT, Committed: committed})
	}
}

// noteApplied marks the views that must see updates transaction vt just
// applied here: optimistic views see every update, pessimistic views a
// committed one.
func (s *Site) noteApplied(objs []*object, vt vtime.VT, committed bool) {
	s.scheduleOptimistic(objs, vt)
	if committed {
		s.onLocalCommit(objs, vt)
	}
}

// handleConfirmRead validates RL guesses on behalf of a remote reader
// (a transaction's read set, a view snapshot, or a join step).
func (s *Site) handleConfirmRead(from vtime.SiteID, m wire.ConfirmRead) {
	var v verdict
	if err := s.authorizeChecks(m.Checks, m.Origin); err != nil {
		v.cause = textCause(err.Error())
	} else {
		// Reservations are tracked only where the transaction has state
		// here (nil for a view snapshot).
		v = s.checkAtPrimary(s.txns[m.TxnVT], m.TxnVT, nil, m.Checks)
	}
	s.send(m.Origin, wire.Confirm{
		TxnVT:     m.TxnVT,
		ReqID:     m.ReqID,
		From:      s.id,
		OK:        v.ok,
		Transient: v.transient,
		Reason:    v.cause.String(),
	})
}

// handleConfirm routes a primary site's verdict to the waiting
// transaction or snapshot request.
func (s *Site) handleConfirm(m wire.Confirm) {
	if m.ReqID != 0 {
		if w, ok := s.confirmWaiters[m.ReqID]; ok {
			delete(s.confirmWaiters, m.ReqID)
			w(m)
		}
		return
	}
	st, ok := s.txns[m.TxnVT]
	if !ok || st.origin != s.id || st.status != txnWaiting {
		return
	}
	if s.obs.TraceEnabled() {
		verdict := "ok"
		if !m.OK {
			verdict = m.Reason
		}
		s.trace(obs.EvConfirm, m.TxnVT, m.From, verdict)
	}
	if m.OK {
		if !st.waitConfirms.has(m.From) && st.extraPending > 0 {
			// A confirmation raced ahead of the join reply that will
			// register it (paper §3.3 flow).
			if st.earlyConfirms == nil {
				st.earlyConfirms = map[vtime.SiteID]bool{}
			}
			st.earlyConfirms[m.From] = true
			return
		}
		st.waitConfirms.remove(m.From)
		s.checkTxnComplete(st)
		return
	}
	s.decide(st, false, &cause{kind: causeDeniedBy, site: m.From, text: m.Reason})
}

// applyUpdate applies one update from a remote transaction. It returns
// false when the update must block on a not-yet-received structural op.
func (s *Site) applyUpdate(st *txnState, upd wire.Update, status history.Status) bool {
	root, ok := s.objects[upd.Target]
	if !ok {
		s.log.Warn("update for unknown object", "target", upd.Target.String())
		return true // drop; cannot block on an unknown root
	}
	return s.applyOpRead(st, root, upd.Path, upd.Op, status, upd.ReadVT)
}

// applyOp applies op to the object at path below target, recording undo
// state in st. It returns false when blocked on missing structure.
func (s *Site) applyOp(st *txnState, target *object, path wire.Path, op wire.Op, status history.Status) bool {
	return s.applyOpRead(st, target, path, op, status, vtime.Zero)
}

// applyOpRead is applyOp carrying the writer's read time tR, recorded on
// scalar versions for the view engine's eager-confirmation test.
func (s *Site) applyOpRead(st *txnState, target *object, path wire.Path, op wire.Op, status history.Status, readVT vtime.VT) bool {
	obj := target
	if len(path) > 0 {
		// Application traverses tombstones: an update that validated at
		// the primary must apply at every replica even where a pending
		// local removal currently hides the element, so all replicas
		// converge whichever way the removal resolves.
		child, _, blocked := target.resolvePath(path, false)
		if blocked {
			return false
		}
		if child == nil {
			s.log.Debug("update path unavailable", "path", path.String())
			return true
		}
		obj = child
	}
	vt := st.vt
	switch o := op.(type) {
	case wire.OpSet:
		if obj.isComposite() {
			// A composite's value is its structure: the value a join
			// copies into it is a state image.
			img, _ := o.Value.([]wire.ChildImage)
			s.installImage(st, obj, img, status)
			break
		}
		if err := obj.hist.InsertRead(vt, o.Value, status, readVT); err != nil {
			s.log.Debug("duplicate update ignored", "obj", obj.id.String(), "vt", vt.String())
			return true
		}
		st.addApplied(appliedUpdate{obj: obj})
	case wire.OpAssoc:
		if err := obj.hist.InsertRead(vt, o.Relationships, status, readVT); err != nil {
			return true
		}
		st.addApplied(appliedUpdate{obj: obj})
	case wire.OpAdd:
		if err := obj.hist.InsertFold(vt, status, readVT, addDelta, o.Delta); err != nil {
			s.log.Debug("duplicate update ignored", "obj", obj.id.String(), "vt", vt.String())
			return true
		}
		st.addApplied(appliedUpdate{obj: obj})
	case wire.OpAssocInsert:
		if err := obj.hist.InsertFold(vt, status, readVT, foldRel, op); err != nil {
			return true
		}
		st.addApplied(appliedUpdate{obj: obj})
	case wire.OpListInsertAfter:
		// Position comes solely from the After anchor and tag order, as
		// for the index op, so receivers reuse its applier.
		eq := wire.OpListInsert{Tag: o.Tag, Child: o.Child, After: o.After}
		if !s.applyListInsert(st, obj, eq, status) {
			return false // the After element's insert not yet received
		}
	case wire.OpGraph:
		s.applyGraphOp(st, obj, o, status)
		st.hasGraphOp = true
		st.graphObjs = append(st.graphObjs, obj)
	case wire.OpListInsert:
		if !s.applyListInsert(st, obj, o, status) {
			return false // the After element's insert not yet received
		}
	case wire.OpListRemove:
		if !s.applyRemove(st, obj, wire.PathElem{Tag: o.Tag}, o, status) {
			return false // element's insert not yet received: block
		}
	case wire.OpTupleSet:
		s.applyTupleSet(st, obj, o, status)
	case wire.OpTupleRemove:
		if !s.applyRemove(st, obj, keyLink(o.Key, o.Of), o, status) {
			return false // entry's insert not yet received: block
		}
	default:
		s.log.Warn("unknown op", "type", fmt.Sprintf("%T", op))
	}
	s.drainPending(target.root())
	return true
}

// applyGraphOp replaces obj's replication graph at st.vt. The shipped
// graph may describe several components (a leave ships the relationship
// with the leaver disconnected); each replica keeps the component
// containing itself.
func (s *Site) applyGraphOp(st *txnState, obj *object, o wire.OpGraph, status history.Status) {
	newG := repgraph.FromWire(o.Graph)
	if newG.Has(obj.id) && !newG.Connected() {
		newG = newG.Component(obj.id)
	}
	if err := obj.graphHist.Insert(st.vt, newG, status); err != nil {
		return // duplicate
	}
	// The cached graph always mirrors the graph history's current
	// version, so out-of-order arrivals and rollbacks both resolve to
	// the latest surviving graph.
	obj.refreshGraph()
	st.addApplied(appliedUpdate{obj: obj, kind: undoGraph})
}

// recordCompositeVersion notes a structural change in the composite's own
// history (one version per transaction, accumulating ops).
func (s *Site) recordCompositeVersion(st *txnState, comp *object, op wire.Op, status history.Status) {
	if v, ok := comp.hist.Get(st.vt); ok {
		ops, _ := v.Value.([]wire.Op)
		comp.hist.SetValue(st.vt, append(ops, op))
		return
	}
	if err := comp.hist.Insert(st.vt, []wire.Op{op}, status); err != nil {
		return
	}
	st.addApplied(appliedUpdate{obj: comp})
}

// applyListInsert embeds a new child element into a list, positioning it
// deterministically so all replicas converge (RGA-style: after the After
// element, before any concurrent sibling with a smaller tag). It returns
// false (blocked) when the After element's insert has not yet arrived
// (paper §3.2.1: propagation blocks until the earlier structural update
// is received).
func (s *Site) applyListInsert(st *txnState, lst *object, o wire.OpListInsert, status history.Status) bool {
	if lst.kind != KindList {
		s.log.Warn("list insert on non-list", "obj", lst.id.String())
		return true
	}
	link := wire.PathElem{Tag: o.Tag}
	if i, _ := lst.findChild(link); i >= 0 {
		return true // duplicate delivery
	}
	pos := 0
	if !o.After.IsZero() {
		ai, _ := lst.findChild(wire.PathElem{Tag: o.After})
		if ai < 0 {
			return false // causal dependency missing: block
		}
		pos = ai + 1
	}
	child := s.newChildObject(lst, link, st.vt, o.Child)
	// Skip over concurrent inserts with greater tags (deterministic
	// total order regardless of arrival order).
	for pos < len(lst.children) && tagLess(o.Tag, lst.children[pos].parentLink.Tag) {
		pos++
	}
	s.embedChild(st, lst, child, pos, o, status)
	return true
}

// tagLess orders element tags by (VT, ordinal).
func tagLess(a, b wire.ElemTag) bool {
	if a.VT != b.VT {
		return a.VT.Less(b.VT)
	}
	return a.N < b.N
}

// applyTupleSet embeds a child under a key. Concurrent sets of the same
// key coexist as separate slots; visibility picks the greatest pin, so
// every replica converges on the same winner regardless of arrival order
// (add-wins).
func (s *Site) applyTupleSet(st *txnState, tup *object, o wire.OpTupleSet, status history.Status) {
	if tup.kind != KindTuple {
		s.log.Warn("tuple set on non-tuple", "obj", tup.id.String())
		return
	}
	link := keyLink(o.Key, st.vt)
	// Idempotence: a duplicate delivery inserted this slot already.
	if i, _ := tup.findChild(link); i >= 0 {
		return
	}
	child := s.newChildObject(tup, link, st.vt, o.Child)
	s.embedChild(st, tup, child, len(tup.children), o, status)
}

// embedChild places a new child at slot index pos of comp, recording the
// structural op in comp's history and an undo that takes the slot out
// again.
func (s *Site) embedChild(st *txnState, comp, child *object, pos int, op wire.Op, status history.Status) {
	comp.children = slices.Insert(comp.children, pos, child)
	s.recordCompositeVersion(st, comp, op, status)
	st.addApplied(appliedUpdate{obj: comp, kind: undoEmbed, child: child})
}

// applyRemove tombstones the child slot named link. It returns false
// (blocked) when the child's insert has not yet arrived. Concurrent
// removals from several sites accumulate independently so an abort of
// one leaves the others in force at every replica.
func (s *Site) applyRemove(st *txnState, comp *object, link wire.PathElem, op wire.Op, status history.Status) bool {
	_, c := comp.findChild(link)
	if c == nil {
		return false
	}
	if slices.Contains(c.removals, st.vt) {
		return true // duplicate delivery
	}
	c.removals = append(c.removals, st.vt)
	s.recordCompositeVersion(st, comp, op, status)
	st.addApplied(appliedUpdate{obj: comp, kind: undoRemoval, child: c})
	return true
}

// drainPending retries indirect updates blocked on structure below root,
// applying any that have become resolvable (paper §3.2.1).
func (s *Site) drainPending(root *object) {
	for len(root.pending) > 0 {
		// Detach the queue before applying anything: applyOp re-enters
		// drainPending from its tail (an applied structural op can
		// unblock further indirect updates), and a re-entrant pass over
		// a shared queue finds the very entry the outer frame is midway
		// through applying, applies it again (the duplicate is ignored),
		// re-enters, and so on — unbounded mutual recursion that
		// overflows the stack. Found by the simulation sweep: profile
		// fastpath-faulty, seed 93. Detached, every frame owns exactly
		// the entries it took; still-blocked ones are re-appended for
		// the next pass (here or in an outer frame).
		pending := root.pending
		root.pending = nil
		progress := false
		for _, p := range pending {
			if known, ok := s.outcomes.get(p.txnVT); ok && !known {
				progress = true
				continue // aborted while blocked
			}
			_, _, blocked := root.resolvePath(p.upd.Path, true)
			if blocked {
				root.pending = append(root.pending, p)
				continue
			}
			st := s.ensureTxn(p.txnVT, p.origin)
			status := history.Pending
			if known, ok := s.outcomes.get(p.txnVT); ok && known {
				status = history.Committed
			}
			applied0 := len(st.applied)
			if !s.applyOp(st, root, p.upd.Path, p.upd.Op, status) {
				// The path resolves but the op still waits on structure
				// (a list insert whose After element has not arrived):
				// park it again, or this replica loses it for good
				// (simulation profile views, seed 95).
				root.pending = append(root.pending, p)
				continue
			}
			var buf objBuf
			s.noteApplied(st.appliedSince(applied0, &buf), p.txnVT, status == history.Committed)
			if st.blockedRemaining > 0 {
				st.blockedRemaining--
				if st.blockedRemaining == 0 && st.onUnblocked != nil {
					cont := st.onUnblocked
					st.onUnblocked = nil
					cont()
				}
			}
			if st.blockedRemaining == 0 {
				s.queryLateOrphan(st)
			}
			progress = true
		}
		if !progress {
			break
		}
	}
}
