package engine

import (
	"cmp"
	"fmt"
	"slices"

	"decaf/internal/history"
	"decaf/internal/ids"
	"decaf/internal/obs"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Shipping updates to a replica graph (paper §3.1, §3.3; DESIGN.md §17).
// Every site that ships a write to the replicas of its graph — an origin's
// guessed write, a fast-path commit, the association step and the joiner's
// graph and value updates of a join, the invitee's merged graph — hands
// address one writeRec at a time. It says where the write goes and who
// confirms it; validating at a local primary, waiting for confirmations
// and sending stay with the callers.

// siteMsg accumulates what one transaction ships to one destination site.
type siteMsg struct {
	site         vtime.SiteID
	updates      []wire.Update
	checks       []wire.ReadCheck
	needsConfirm bool
}

// fanout holds a transaction's siteMsgs in site order, so the sends leave
// in an order that is a function of state, not of map iteration (order.go).
type fanout []siteMsg

// to returns site's entry, adding an empty one in order.
func (f *fanout) to(site vtime.SiteID) *siteMsg {
	i, found := slices.BinarySearchFunc(*f, site, func(m siteMsg, site vtime.SiteID) int { return cmp.Compare(m.site, site) })
	if !found {
		*f = slices.Insert(*f, i, siteMsg{site: site})
	}
	return &(*f)[i]
}

// path is the write's addressing path below its replication root.
func (w *writeRec) path() wire.Path {
	if w.pathOverride != nil {
		return *w.pathOverride
	}
	return w.obj.pathFromRoot()
}

// appendUpdates appends the write's ops, addressed to node at path.
func (w *writeRec) appendUpdates(dst []wire.Update, node ids.ObjectID, path wire.Path) []wire.Update {
	for _, op := range w.ops {
		dst = append(dst, wire.Update{Target: node, Path: path, ReadVT: w.readVT, GraphVT: w.graphVT, Op: op})
	}
	return dst
}

// address addresses one write to the replicas of its graph: the write's
// targetGraph, else its replication root's graph. It skips the replica the
// write was applied to, applies a sibling replica at this site directly
// with status, and appends the write's updates for every other node to
// that node's site in out, marking the primary's site as the one that
// confirms. It reports the primary node and site (this site for a graph
// without one) and the path it addressed. It validates and reserves
// nothing.
func (s *Site) address(st *txnState, w *writeRec, status history.Status, out *fanout) (primary ids.ObjectID, primarySite vtime.SiteID, path wire.Path) {
	root := w.obj.replicationRoot()
	g := root.graph
	if w.targetGraph != nil {
		g = w.targetGraph
	}
	path = w.path()
	primary, _ = g.Primary()
	primarySite, ok := g.PrimarySite()
	if !ok {
		primarySite = s.id
	}
	for i := range g.NumNodes() {
		node, site := g.NodeAt(i)
		if node == root.id {
			continue // applied during execution
		}
		if site != s.id {
			m := out.to(site)
			m.updates = w.appendUpdates(m.updates, node, path)
			m.needsConfirm = m.needsConfirm || site == primarySite
			continue
		}
		sib, ok := s.objects[node]
		if !ok {
			s.log.Warn("sibling replica missing", "node", node.String())
			continue
		}
		for _, op := range w.ops {
			s.applyOpRead(st, sib, path, op, status, w.readVT)
		}
	}
	return primary, primarySite, path
}

// awaitConfirm makes the origin's transaction st wait for site's
// confirmation: the one place an origin starts waiting on a primary. A
// site marked failed will never answer, so the transaction is denied and
// parks until the graph repair commits (paper §3.4).
func (s *Site) awaitConfirm(st *txnState, site vtime.SiteID) {
	if s.failed[site] {
		st.denied = true
		st.deniedCause = textCause(fmt.Sprintf("primary site %s failed", site))
		st.parkOnAbort = true
		return
	}
	st.waitConfirms[site] = true
}

// propagate ships an origin's transaction: its writes, addressed, and its
// read checks, to each primary. The entries it would send to itself go to
// checkAtPrimary instead.
func (s *Site) propagate(st *txnState) {
	var out fanout
	var selfUpdates []wire.Update
	var selfChecks []wire.ReadCheck
	for _, w := range st.writes {
		primary, primarySite, path := s.address(st, w, history.Pending, &out)
		if primarySite == s.id {
			selfUpdates = w.appendUpdates(selfUpdates, primary, path)
		}
	}
	for _, r := range st.reads {
		if r.absorbed {
			continue
		}
		g := r.obj.replicationRoot().graph
		if g.NumNodes() <= 1 {
			continue // unreplicated object: nothing to confirm
		}
		primary, _ := g.Primary()
		primarySite, _ := g.PrimarySite()
		c := wire.ReadCheck{Target: primary, Path: r.obj.pathFromRoot(), ReadVT: r.readVT, GraphVT: r.graphVT}
		if primarySite == s.id {
			selfChecks = append(selfChecks, c)
			continue
		}
		m := out.to(primarySite)
		m.checks = append(m.checks, c)
		m.needsConfirm = true
	}

	if len(selfUpdates) > 0 || len(selfChecks) > 0 {
		reserved := len(st.reservedObjs)
		v := s.checkAtPrimary(st, st.vt, selfUpdates, selfChecks)
		s.traceCheck(st.vt, 0, v, len(st.reservedObjs)-reserved)
		if !v.ok {
			st.denied = true
			st.deniedCause = v.cause
		}
	}
	for _, m := range out {
		st.involved[m.site] = true
		if m.needsConfirm {
			s.awaitConfirm(st, m.site)
		}
	}

	// Delegated commit (paper §3.1): exactly one remote primary site, no
	// RC guesses, and that site receives updates. Never for a transaction
	// already denied here: the delegate would commit what the origin
	// aborts.
	var delegate vtime.SiteID
	if !st.denied && len(st.waitConfirms) == 1 && len(st.rcDeps) == 0 && st.extraPending == 0 {
		for _, m := range out {
			if m.needsConfirm && len(m.updates) > 0 {
				delegate = m.site
			}
		}
	}

	record := func(site vtime.SiteID, msg wire.Message) {
		if s.wal == nil {
			return
		}
		if st.sentMsgs == nil {
			st.sentMsgs = map[vtime.SiteID][]wire.Message{}
		}
		st.sentMsgs[site] = append(st.sentMsgs[site], msg)
	}
	for _, m := range out {
		site := m.site
		if len(m.updates) > 0 {
			msg := wire.Write{
				TxnVT:        st.vt,
				Origin:       s.id,
				Floor:        s.combinedGCFloor(),
				Updates:      m.updates,
				Checks:       m.checks,
				NeedsConfirm: m.needsConfirm,
			}
			if site == delegate {
				var others []vtime.SiteID
				for _, inv := range sortedSites(st.involved) {
					if inv != site {
						others = append(others, inv)
					}
				}
				msg.Delegate = &wire.Delegation{Sites: others}
				st.delegatedTo = site
				delete(st.waitConfirms, site)
			}
			if s.obs.TraceEnabled() {
				detail := ""
				switch {
				case site == delegate:
					detail = "delegate"
				case m.needsConfirm:
					detail = "confirm"
				}
				s.trace(obs.EvPropagate, st.vt, site, detail)
			}
			record(site, msg)
			s.send(site, msg)
		} else if len(m.checks) > 0 {
			s.trace(obs.EvPropagate, st.vt, site, "confirm")
			cr := wire.ConfirmRead{TxnVT: st.vt, Origin: s.id, Floor: s.combinedGCFloor(), Checks: m.checks}
			record(site, cr)
			s.send(site, cr)
		}
	}
}
