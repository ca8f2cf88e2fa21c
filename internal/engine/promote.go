package engine

import (
	"fmt"

	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Direct propagation for embedded objects (paper §3.2.2): by default an
// object embedded within a composite inherits its root's replication
// graph and its updates propagate indirectly through VT-tagged paths.
// "Once a collaborating node is embedded within another collaborating
// node ..., that node switches to direct propagation, and a propagation
// graph is sent to all replicas."
//
// Switching requires a propagation graph over the child's counterparts at
// every replica site of the root. Counterpart object IDs are local to
// each site, so promotion first collects them (PromoteQuery/PromoteReply,
// addressed through the root with the child's path), then distributes the
// assembled graph as an ordinary replication-graph update validated at
// the root graph's primary. Afterwards the child is its own replication
// root: its updates are addressed directly to the graph's nodes, and it
// can join external objects like any top-level object.
//
// When the ROOT's replica set later changes (a join or leave of the
// tree), the site hosting the direct child's primary copy re-collects the
// counterpart set and refreshes the child's graph, implementing "the
// parent node notifies the collaborating embedded node of all changes to
// its replica graph".

// promoteState tracks one in-flight promotion at the initiating site.
type promoteState struct {
	child   *object
	handle  *Handle
	waiting map[vtime.SiteID]bool
	// collected maps replica site -> counterpart child ID.
	collected map[vtime.SiteID]ids.ObjectID
	// keep preserves existing graph members (a refresh must not drop
	// external collaborators).
	keep *repgraph.Graph
	// anchorSite is the root graph's primary site; the child's anchor is
	// placed there so primary placement follows the tree's.
	anchorSite vtime.SiteID
	failed     bool
}

// Promote switches an embedded object to direct propagation (paper
// §3.2.2). Idempotent: promoting a standalone or already-direct object
// succeeds immediately.
func (s *Site) Promote(ref ObjRef) *Handle {
	h := newHandle()
	s.doOrDrop(
		func() { s.startPromote(ref.o, h) },
		func() { h.finish(Result{Err: ErrSiteStopped}) },
	)
	return h
}

func (s *Site) startPromote(child *object, h *Handle) {
	if child == nil {
		h.finish(Result{Err: fmt.Errorf("%w: invalid object", ErrAborted)})
		return
	}
	if child.graph != nil || child.parent == nil {
		// Already its own replication root.
		h.finish(Result{Committed: true})
		return
	}
	root := child.replicationRoot()
	g := root.graph
	if g == nil || g.NumNodes() <= 1 {
		// Unreplicated tree: a single-node graph suffices.
		s.adoptDirectGraph(child, repgraph.NewGraph(child.id, s.id), nil, h)
		return
	}
	s.queryCounterparts(child, g, nil, h)
}

// queryCounterparts collects child's counterpart at every other replica
// site of its tree's graph g (a PromoteQuery addressed through g's node
// there, with child's path), then assembles and distributes the direct
// graph, merged with keep when refreshing one.
func (s *Site) queryCounterparts(child *object, g, keep *repgraph.Graph, h *Handle) {
	anchorSite, _ := g.PrimarySite()
	ps := &promoteState{
		child:      child,
		handle:     h,
		waiting:    map[vtime.SiteID]bool{},
		collected:  map[vtime.SiteID]ids.ObjectID{s.id: child.id},
		keep:       keep,
		anchorSite: anchorSite,
	}
	path := child.pathFromContainer()
	for _, node := range g.Nodes() {
		nodeSite, _ := g.SiteOf(node)
		if nodeSite == s.id {
			continue
		}
		reqID := s.newReqID()
		ps.waiting[nodeSite] = true
		s.promotes[reqID] = ps
		s.send(nodeSite, wire.PromoteQuery{ReqID: reqID, Origin: s.id, Target: node, Path: path})
	}
	if len(ps.waiting) == 0 {
		s.finishPromote(ps)
	}
}

// handlePromoteQuery reveals the counterpart child's identity.
func (s *Site) handlePromoteQuery(m wire.PromoteQuery) {
	reply := wire.PromoteReply{ReqID: m.ReqID, From: s.id}
	if root, ok := s.objects[m.Target]; ok {
		if child, _, blocked := root.resolvePath(m.Path, false); !blocked && child != nil {
			reply.OK = true
			reply.Child = child.id
		}
	}
	s.send(m.Origin, reply)
}

// handlePromoteReply collects counterpart identities.
func (s *Site) handlePromoteReply(m wire.PromoteReply) {
	ps, ok := s.promotes[m.ReqID]
	if !ok {
		return
	}
	delete(s.promotes, m.ReqID)
	if ps.failed {
		return
	}
	delete(ps.waiting, m.From)
	if !m.OK {
		// The counterpart has not materialized there yet (structural op
		// in flight); the caller may retry.
		ps.failed = true
		ps.handle.finish(Result{Err: fmt.Errorf("%w: counterpart not resolvable at %s", ErrAborted, m.From)})
		return
	}
	ps.collected[m.From] = m.Child
	if len(ps.waiting) == 0 {
		s.finishPromote(ps)
	}
}

// finishPromote assembles and distributes the direct propagation graph.
func (s *Site) finishPromote(ps *promoteState) {
	child := ps.child
	if ps.keep == nil && child.graph != nil {
		// A concurrent promotion won the race; nothing to do.
		ps.handle.finish(Result{Committed: true})
		return
	}
	g := repgraph.NewGraph(child.id, s.id)
	// Site-sorted so the assembled graph (which goes out on the wire) has
	// the same node order on every run.
	for _, site := range sortedSites(ps.collected) {
		if id := ps.collected[site]; id != child.id {
			g.AddNode(id, site)
			_ = g.AddEdge(child.id, id)
		}
	}
	if ps.keep != nil {
		g.Merge(ps.keep)
	}
	// The child's primary follows the tree's primary placement.
	if anchorID, ok := ps.collected[ps.anchorSite]; ok {
		g.SetAnchor(anchorID)
	}
	s.adoptDirectGraph(child, g, ps.keep, ps.handle)
}

// adoptDirectGraph distributes the direct graph as an ordinary
// replication-graph update: addressed through the root's graph (the
// counterparts have no graph yet, so indirect paths carry it), validated
// at the root graph's primary like any graph change.
func (s *Site) adoptDirectGraph(child *object, g *repgraph.Graph, keep *repgraph.Graph, h *Handle) {
	txn := &Txn{
		Name: "promote",
		Execute: func(tx *Tx) error {
			if keep != nil && child.graph != nil {
				// Refresh: reach both the old members and the newly
				// collected counterparts (all IDs known, direct
				// addressing).
				targets := child.graph.Clone()
				targets.Merge(g)
				tx.writeGraphUpdateTargets(child, g, targets)
				return nil
			}
			tx.writeGraphUpdate(child, g)
			return nil
		},
	}
	// Submitted from the loop, so through its own FIFO, with h as the
	// transaction's handle.
	s.stats.Submitted.Add(1)
	h.submittedWall = s.obs.NowNanos()
	s.enqueue(func() { s.execute(txn, h, 0) }, func() { h.finish(Result{Err: ErrSiteStopped}) })
}

// refreshDirectChildren re-collects counterpart sets for direct children
// under root after the root's replica set changed; only the site hosting
// a child's primary copy initiates (one refresher per child).
func (s *Site) refreshDirectChildren(root *object) {
	root.forEachDescendant(func(o *object) {
		if o == root || o.graph == nil || o.parent == nil || root.graph == nil {
			return
		}
		if primary, ok := o.graph.PrimarySite(); ok && primary == s.id {
			s.queryCounterparts(o, root.graph, o.graph.Clone(), newHandle())
		}
	})
}
