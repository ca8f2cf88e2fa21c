package engine

import (
	"fmt"
	"slices"
	"strconv"

	"decaf/internal/history"
	"decaf/internal/ids"
	"decaf/internal/obs"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Dynamic collaboration establishment (paper §2.6, §3.3): association
// objects hold sets of replica relationships; invitations are external
// tokens granting the right to replicate; the join protocol merges
// replication graphs with confirmations from both graphs' primaries.

// Invitation is the external token publicizing the right to make replicas
// of an application's objects (paper §2.6). It is plain data: publish it
// on any out-of-band channel.
type Invitation struct {
	Site  vtime.SiteID
	Assoc ids.ObjectID
	Desc  string
}

// CreateAssociation creates an association model object at this site.
func (s *Site) CreateAssociation(desc string) (ObjRef, error) {
	return s.CreateObject(KindAssociation, desc, nil)
}

// Invite creates the external token for an association.
func (s *Site) Invite(assoc ObjRef, desc string) (Invitation, error) {
	if assoc.o == nil || assoc.o.kind != KindAssociation {
		return Invitation{}, fmt.Errorf("%w: Invite requires an association", ErrWrongKind)
	}
	return Invitation{Site: s.id, Assoc: assoc.o.id, Desc: desc}, nil
}

// relationships reads an association object's current value.
func assocValue(o *object) []wire.Relationship {
	cur, ok := o.hist.Current()
	if !ok {
		return nil
	}
	rels, _ := cur.Value.([]wire.Relationship)
	return rels
}

// cloneRels deep-copies a relationship list for safe modification.
func cloneRels(rels []wire.Relationship) []wire.Relationship {
	out := make([]wire.Relationship, len(rels))
	for i, r := range rels {
		out[i] = wire.Relationship{Name: r.Name, Members: append([]wire.Member(nil), r.Members...)}
	}
	return out
}

// DefineRelationship adds (or extends) a named replica relationship in an
// association, registering member as a joined object. It runs as a normal
// transaction on the association object.
func (s *Site) DefineRelationship(assoc ObjRef, name string, member ObjRef, memberDesc string) *Handle {
	return s.Submit(&Txn{
		Name: "define-relationship",
		Execute: func(tx *Tx) error {
			if assoc.o == nil || assoc.o.kind != KindAssociation {
				return fmt.Errorf("%w: not an association", ErrWrongKind)
			}
			if member.o == nil {
				return ErrInvalidRef
			}
			cur, _ := tx.Read(assoc)
			rels, _ := cur.([]wire.Relationship)
			rels = cloneRels(rels)
			m := wire.Member{Site: s.id, Obj: member.o.id, Desc: memberDesc}
			found := false
			for i := range rels {
				if rels[i].Name == name {
					rels[i].Members = append(rels[i].Members, m)
					found = true
				}
			}
			if !found {
				rels = append(rels, wire.Relationship{Name: name, Members: []wire.Member{m}})
			}
			tx.WriteScalar(assoc.o, rels)
			return nil
		},
	})
}

// Relationships returns the association's current relationships.
func (s *Site) Relationships(assoc ObjRef) ([]wire.Relationship, error) {
	if assoc.o == nil || assoc.o.kind != KindAssociation {
		return nil, fmt.Errorf("%w: not an association", ErrWrongKind)
	}
	var out []wire.Relationship
	err := s.call(func() { out = cloneRels(assocValue(assoc.o)) })
	return out, err
}

// joinState tracks an in-flight join at the joining site.
type joinState struct {
	st    *txnState
	local *object
	// newRef receives the resulting local ref for ImportAssociation.
	onValue func(any)
}

// ImportAssociation instantiates a local association object replicating
// the one named by an invitation (paper §2.6: "Application B must then
// import this invitation and use it to instantiate its own association
// object"). The returned handle resolves when the underlying join
// transaction commits; the ObjRef is usable immediately.
func (s *Site) ImportAssociation(inv Invitation, desc string) (ObjRef, *Handle, error) {
	local, err := s.CreateAssociation(desc)
	if err != nil {
		return ObjRef{}, nil, err
	}
	h := newHandle()
	s.doOrDrop(
		func() { s.startJoin(h, local.o, inv.Site, inv.Assoc, nil, "") },
		func() { h.finish(Result{Err: ErrSiteStopped}) },
	)
	return local, h, nil
}

// JoinObject joins a local object directly into a remote object's replica
// relationship, given an out-of-band reference (site and object ID). This
// is the object-level §3.3 protocol without an association; applications
// normally use associations (ImportAssociation / JoinRelationship).
func (s *Site) JoinObject(local ObjRef, remoteSite vtime.SiteID, remoteObj ids.ObjectID) *Handle {
	h := newHandle()
	s.doOrDrop(
		func() {
			if local.o == nil {
				h.finish(Result{Err: fmt.Errorf("%w: invalid local object", ErrAborted)})
				return
			}
			s.startJoin(h, local.o, remoteSite, remoteObj, nil, "")
		},
		func() { h.finish(Result{Err: ErrSiteStopped}) },
	)
	return h
}

// JoinRelationship joins obj into the named replica relationship of a
// (locally replicated) association: the §3.3 protocol. The association
// value is read to find a member object B, optimistically updated to
// record the new member, and the object-level graph merge runs between
// obj and B.
func (s *Site) JoinRelationship(assoc ObjRef, relName string, obj ObjRef) *Handle {
	h := newHandle()
	s.doOrDrop(func() {
		if assoc.o == nil || assoc.o.kind != KindAssociation || obj.o == nil {
			h.finish(Result{Err: fmt.Errorf("%w: join needs an association and an object", ErrAborted)})
			return
		}
		rels := assocValue(assoc.o)
		var target *wire.Member
		for i := range rels {
			if rels[i].Name == relName {
				for j := range rels[i].Members {
					m := &rels[i].Members[j]
					if m.Obj != obj.o.id {
						target = m
						break
					}
				}
			}
		}
		if target == nil {
			h.finish(Result{Err: fmt.Errorf("%w: relationship %q has no joinable member", ErrAborted, relName)})
			return
		}
		s.startJoin(h, obj.o, target.Site, target.Obj, assoc.o, relName)
	}, func() { h.finish(Result{Err: ErrSiteStopped}) })
	return h
}

// startJoin begins the join transaction at the joining site (paper §3.3).
// assoc (optional) is the local association replica to update with the
// new membership as part of the same atomic transaction.
func (s *Site) startJoin(h *Handle, local *object, remoteSite vtime.SiteID, remoteObj ids.ObjectID, assoc *object, relName string) {
	// Joins are locally originated transactions like any other: they
	// must enter the Submitted count (they already enter Commits /
	// ConflictAborts / Retries) or the quiescent accounting identity
	// Submitted == Commits + ProgrammedAborts + abandoned breaks.
	s.stats.Submitted.Add(1)
	h.submittedWall = s.obs.NowNanos()
	s.startJoinAttempt(h, local, remoteSite, remoteObj, assoc, relName, 0)
}

// startJoinAttempt runs one (re-)execution of the join transaction.
func (s *Site) startJoinAttempt(h *Handle, local *object, remoteSite vtime.SiteID, remoteObj ids.ObjectID, assoc *object, relName string, retries int) {
	if local.graph == nil {
		// An embedded object must first switch to direct propagation
		// (paper §3.2.2) before it can join external objects.
		ph := newHandle()
		s.onFinish(ph, func(res Result) {
			if !res.Committed {
				h.finish(Result{Err: fmt.Errorf("%w: promotion before join failed: %v", ErrAborted, res.Err)})
				return
			}
			s.startJoinAttempt(h, local, remoteSite, remoteObj, assoc, relName, retries)
		}, func() { h.finish(Result{Err: ErrSiteStopped}) })
		s.startPromote(local, ph)
		return
	}
	vt := s.clock.Next()
	st := &txnState{
		vt:      vt,
		origin:  s.id,
		status:  txnWaiting,
		handle:  h,
		retries: retries,
	}
	st.involved.add(s.id)
	st.retryFn = func(r int) {
		s.startJoinAttempt(h, local, remoteSite, remoteObj, assoc, relName, r)
	}
	s.trackTxn(st)
	h.markApplied()
	if s.obs.TraceEnabled() {
		if retries == 0 {
			s.trace(obs.EvSubmit, vt, 0, "join")
		}
		s.trace(obs.EvExecute, vt, 0, "attempt "+strconv.Itoa(retries+1))
	}

	// Step 1: read and optimistically update the association value, an
	// ordinary write on the association, shipped with the join's other
	// writes and confirmed by the association's primary copy.
	if assoc != nil {
		cur, ok := assoc.hist.Current()
		readVT := vtime.Zero
		if ok {
			readVT = cur.VT
			if cur.Status == history.Pending {
				st.addRCDep(cur.VT)
			}
		}
		rels := cloneRels(assocValue(assoc))
		for i := range rels {
			if rels[i].Name == relName {
				rels[i].Members = append(rels[i].Members, wire.Member{Site: s.id, Obj: local.id, Desc: local.desc})
			}
		}
		w := st.addWrite(writeRec{obj: assoc, readVT: readVT, graphVT: assoc.graphVT, ops: []wire.Op{wire.OpAssoc{Relationships: rels}}})
		s.applyOpRead(st, assoc, nil, w.ops[0], history.Pending, readVT)
	}

	// Step 2: the remote call to B carrying gA.
	reqID := s.newReqID()
	s.joins[reqID] = &joinState{st: st, local: local}
	st.extraPending++ // the JoinReply itself
	s.send(remoteSite, wire.JoinRequest{
		TxnVT:  vt,
		ReqID:  reqID,
		AObj:   local.id,
		BObj:   remoteObj,
		GraphA: local.graph.ToWire(),
	})
	st.involved.add(remoteSite)
}

// handleJoinRequest runs B's side of the join (paper §3.3): merge gA and
// gB, apply and propagate the merged graph to B's replicas (confirmed by
// gB's primary on A's behalf), and return B's value and graph to A.
func (s *Site) handleJoinRequest(from vtime.SiteID, m wire.JoinRequest) {
	deny := func(reason string) {
		s.send(from, wire.JoinReply{ReqID: m.ReqID, OK: false, Reason: reason})
	}
	denyRetryable := func(reason string) {
		s.send(from, wire.JoinReply{ReqID: m.ReqID, OK: false, Reason: reason, Retryable: true})
	}
	b, ok := s.objects[m.BObj]
	if !ok {
		deny(fmt.Sprintf("object %s unknown at %s", m.BObj, s.id))
		return
	}
	if err := s.authorize(AuthJoin, b, from); err != nil {
		deny(err.Error())
		return
	}
	if b.graph == nil {
		if b.parent == nil {
			deny(fmt.Sprintf("object %s has no replication graph", m.BObj))
			return
		}
		// An embedded invitee switches to direct propagation first
		// (paper §3.2.2), then the join proceeds.
		ph := newHandle()
		s.onFinish(ph, func(res Result) {
			if !res.Committed {
				deny(fmt.Sprintf("promotion failed: %v", res.Err))
				return
			}
			s.handleJoinRequest(from, m)
		}, nil)
		s.startPromote(b, ph)
		return
	}
	gA := repgraph.FromWire(m.GraphA)
	if !gA.Has(m.AObj) {
		deny("joiner graph does not contain the joining object")
		return
	}

	// The join executes at the joiner's pre-assigned VT, but the state it
	// merges is read HERE. A joiner whose clock lags (first contact)
	// could stamp the merged graph below the current version, making it
	// invisible; deny and let the retry pick up this site's clock from
	// the reply's Lamport stamp.
	if cur, okc := b.hist.Current(); okc && m.TxnVT.LessEq(cur.VT) {
		denyRetryable(fmt.Sprintf("stale VT %s <= value at %s", m.TxnVT, cur.VT))
		return
	}
	if m.TxnVT.LessEq(b.graphVT) {
		denyRetryable(fmt.Sprintf("stale VT %s <= graph at %s", m.TxnVT, b.graphVT))
		return
	}

	st := s.ensureTxn(m.TxnVT, from)

	oldGraph := b.graph
	oldGraphVT := b.graphVT
	var pendingGraphTxn vtime.VT
	if gcur, okc := b.graphHist.Current(); okc && gcur.Status == history.Pending {
		// A must additionally wait for the transaction that wrote gB
		// (paper §3.3: "this fact is remembered at B"). A was not an
		// involved site of that transaction, so B forwards its outcome.
		pendingGraphTxn = gcur.VT
		dep := gcur.VT
		s.rcWaiters[dep] = append(s.rcWaiters[dep], func(committed bool) {
			s.send(from, wire.Outcome{TxnVT: dep, Committed: committed})
		})
	}

	merged := oldGraph.Clone()
	merged.Merge(gA)
	if err := merged.AddEdge(m.AObj, m.BObj); err != nil {
		deny(fmt.Sprintf("graph merge: %v", err))
		return
	}
	op := wire.OpGraph{Graph: merged.ToWire()}

	// Apply the merged graph to B locally (optimistically) and address it
	// to B's former replicas as a write on the joiner's behalf; gB's
	// primary confirms directly to A.
	s.applyOp(st, b, nil, op, history.Pending)
	w := &writeRec{obj: b, readVT: oldGraphVT, graphVT: oldGraphVT, ops: []wire.Op{op}, targetGraph: oldGraph}
	var out fanout
	primary, primarySite, path := s.address(st, w, history.Pending, &out)
	if primarySite == s.id {
		// gB's primary is B's own site: validate here, before anything
		// leaves, and fold the verdict into the reply (no separate
		// confirmation message).
		if v := s.checkAtPrimary(st, m.TxnVT, w.appendUpdates(nil, primary, path), nil); !v.ok {
			s.undoApplied(st)
			denyRetryable(v.cause.String())
			return
		}
	}
	var confirmSites []vtime.SiteID
	for _, sm := range out.all() {
		if sm.site == from {
			continue // it would land on the joiner's own transaction
		}
		s.send(sm.site, wire.Write{
			TxnVT:        m.TxnVT,
			Origin:       from, // confirmations flow to the joiner
			Floor:        s.combinedGCFloor(),
			Updates:      sm.updates,
			NeedsConfirm: sm.needsConfirm,
		})
		if sm.needsConfirm {
			confirmSites = append(confirmSites, sm.site)
		}
	}

	s.send(from, wire.JoinReply{
		ReqID:           m.ReqID,
		OK:              true,
		BValue:          snapshotValue(b),
		GraphB:          op.Graph,
		PendingGraphTxn: pendingGraphTxn,
		ConfirmSites:    confirmSites,
	})
}

// snapshotValue captures b's current value for shipment to the joiner:
// a composite's state image, or a scalar's or association's value.
func snapshotValue(b *object) any {
	if b.isComposite() {
		return captureImage(b, false)
	}
	cur, ok := b.hist.Current()
	if !ok {
		return defaultValue(b.kind)
	}
	return cur.Value
}

// captureImage returns comp's state image: every child slot, removed ones
// included (an insert may anchor on a removed element), with its insert
// VT, removals, kind, latest scalar value and its own slots. committed
// selects the cut read: the committed state, leaving out uncommitted
// inserts, removals and values (a checkpoint), or the current state (a
// join reply).
func captureImage(comp *object, committed bool) []wire.ChildImage {
	var img []wire.ChildImage
	for _, c := range comp.children {
		if committed && !comp.isCommitted(c.insertVT) {
			continue
		}
		ci := wire.ChildImage{Slot: c.parentLink, InsertVT: c.insertVT, Kind: c.kind}
		for _, r := range c.removals {
			if !committed || comp.isCommitted(r) {
				ci.Removals = append(ci.Removals, r)
			}
		}
		if c.isComposite() {
			ci.Children = captureImage(c, committed)
		} else {
			cur, _ := c.hist.Current()
			if committed {
				cur, _ = c.hist.CurrentCommitted()
			}
			ci.Value, ci.ValueVT = cur.Value, cur.VT
		}
		img = append(img, ci)
	}
	return img
}

// installImage builds img's slots under comp. A scalar child takes the
// image's value as committed at its VT, as in the history it was
// captured from. Under a transaction (a join: at the joiner, and at the
// joiner's other replicas through the join's value write) st embeds
// every slot: its insert VT is raised to st.vt, so the copy is visible,
// commits and aborts with the join, and undo takes it out. The join
// copies B's value over A's, as it would a scalar's, so A's own slots
// are removed by st, except a slot the image also names (A rejoining
// structure it shared), which stays as A has it. With st nil the image
// is committed state (Restore, Recover) for a fresh comp: slots keep
// their insert VTs, and each insert and removal becomes a committed
// version of comp, as it was in the captured history.
func (s *Site) installImage(st *txnState, comp *object, img []wire.ChildImage, status history.Status) {
	op := wire.OpSet{Value: img}
	own := comp.children
	if st != nil {
		if _, ok := comp.hist.Get(st.vt); ok {
			return // a duplicate delivery: installed already
		}
		for _, c := range own {
			if !slices.ContainsFunc(img, func(ci wire.ChildImage) bool { return ci.Slot == c.parentLink }) {
				s.applyRemove(st, comp, c.parentLink, op, status)
			}
		}
	}
	for _, ci := range img {
		if slices.ContainsFunc(own, func(c *object) bool { return c.parentLink == ci.Slot }) {
			continue
		}
		insertVT := ci.InsertVT
		if st != nil {
			insertVT = insertVT.Max(st.vt)
		}
		child := s.newChildObject(comp, ci.Slot, insertVT, wire.ChildDecl{Kind: ci.Kind, Value: ci.Value})
		child.removals = slices.Clone(ci.Removals)
		if !ci.ValueVT.IsZero() {
			_ = child.hist.Insert(ci.ValueVT, ci.Value, history.Committed)
		}
		if st != nil {
			s.embedChild(st, comp, child, len(comp.children), op, status)
		} else {
			comp.children = append(comp.children, child)
			for _, vt := range append([]vtime.VT{insertVT}, ci.Removals...) {
				if _, ok := comp.hist.Get(vt); !ok {
					_ = comp.hist.Insert(vt, []wire.Op(nil), history.Committed)
				}
			}
		}
		s.installImage(st, child, ci.Children, status)
	}
}

// handleJoinReply completes the join at the joining site.
func (s *Site) handleJoinReply(m wire.JoinReply) {
	js, ok := s.joins[m.ReqID]
	if !ok {
		return
	}
	delete(s.joins, m.ReqID)
	st := js.st
	if st.status != txnWaiting {
		return
	}
	if !m.OK {
		if m.Retryable {
			// An ordinary concurrency-control conflict: undo and retry
			// with a fresh virtual time, like any other transaction.
			s.decide(st, false, textCause("join conflict: "+m.Reason))
			return
		}
		s.abortJoin(st, "join denied: "+m.Reason)
		return
	}

	// Apply the merged graph and B's value locally; both are writes
	// addressed to A's former replicas (gA), confirmed by gA's primary.
	local := js.local
	gA, gAVT := local.graph, local.graphVT
	graphOp := wire.OpGraph{Graph: m.GraphB}
	valueOp := valueOpFor(m.BValue)
	s.applyOp(st, local, nil, graphOp, history.Pending)
	s.applyOp(st, local, nil, valueOp, history.Pending)
	st.addWrite(writeRec{obj: local, readVT: gAVT, graphVT: gAVT, ops: []wire.Op{graphOp}, targetGraph: gA})
	st.addWrite(writeRec{obj: local, readVT: st.vt, graphVT: gAVT, ops: []wire.Op{valueOp}, targetGraph: gA})

	// Every member of the merged graph is involved in the outcome.
	for _, site := range repgraph.FromWire(m.GraphB).Sites() {
		st.involved.add(site)
	}
	// Wait for the confirmations B requested on our behalf, unless they
	// raced ahead of the reply.
	for _, site := range m.ConfirmSites {
		if !st.earlyConfirms[site] {
			s.awaitConfirm(st, site)
		}
	}
	// RC guess on B's uncommitted graph (paper §3.3).
	if !m.PendingGraphTxn.IsZero() {
		st.addRCDep(m.PendingGraphTxn)
	}
	// Shipped while extraPending still counts the reply, so a join is
	// never delegated.
	s.propagate(st)
	st.extraPending--
	if st.denied {
		s.decide(st, false, st.deniedCause)
		return
	}
	s.registerRCDeps(st)
	s.checkTxnComplete(st)
}

// valueOpFor wraps a joined value in the op that installs it, at the
// joiner and at its other replicas: OpAssoc for an association, else
// OpSet (whose applier installs a composite's state image).
func valueOpFor(value any) wire.Op {
	if rels, ok := value.([]wire.Relationship); ok {
		return wire.OpAssoc{Relationships: rels}
	}
	return wire.OpSet{Value: value}
}

// abortJoin fails an in-flight join after a JoinReply no retry can fix (an
// unknown object, an unauthorized join, a merge error): the join surfaces
// the failure to its caller. A concurrency-control denial retries.
func (s *Site) abortJoin(st *txnState, reason string) {
	st.retryFn = nil // suppress automatic retry
	s.decide(st, false, textCause(reason))
}

// LeaveRelationship removes obj from its replica relationship: the
// remaining members receive the relationship graph with obj disconnected
// (each replica keeps its own component, so obj reverts to a single-node
// graph), and the association drops the membership entry. It runs as an
// ordinary transaction, confirmed by the old graph's primary, and retries
// automatically on conflicts.
func (s *Site) LeaveRelationship(assoc ObjRef, relName string, obj ObjRef) *Handle {
	return s.Submit(&Txn{
		Name: "leave-relationship",
		Execute: func(tx *Tx) error {
			if obj.o == nil {
				return ErrInvalidRef
			}
			local := obj.o
			if local.graph == nil || local.graph.NumNodes() <= 1 {
				return fmt.Errorf("%w: object not collaborating", ErrWrongKind)
			}
			// Update the association membership if provided.
			if assoc.o != nil && assoc.o.kind == KindAssociation {
				cur, _ := tx.Read(assoc)
				rels, _ := cur.([]wire.Relationship)
				rels = cloneRels(rels)
				for i := range rels {
					if rels[i].Name != relName {
						continue
					}
					kept := rels[i].Members[:0]
					for _, mb := range rels[i].Members {
						if mb.Obj != local.id {
							kept = append(kept, mb)
						}
					}
					rels[i].Members = kept
				}
				tx.WriteScalar(assoc.o, rels)
			}
			// Ship the relationship graph with this object disconnected:
			// every replica (including this one) keeps the component
			// containing itself.
			disconnected := local.graph.Clone()
			disconnected.RemoveNodeContract(local.id)
			site := local.site.id
			disconnected.AddNode(local.id, site)
			tx.writeGraphUpdate(local, disconnected)
			return nil
		},
	})
}
