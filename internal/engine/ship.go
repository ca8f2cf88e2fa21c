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
// A write reaches a few sites, so the first four entries live inline and a
// fanout on the caller's stack allocates nothing of its own.
type fanout struct {
	n     int
	small [4]siteMsg
	large []siteMsg // every entry, once there are more than len(small)
}

// all returns the entries in site order.
func (f *fanout) all() []siteMsg {
	if f.large != nil {
		return f.large
	}
	return f.small[:f.n]
}

// to returns site's entry, adding an empty one in order.
func (f *fanout) to(site vtime.SiteID) *siteMsg {
	all := f.all()
	i, found := slices.BinarySearchFunc(all, site, func(m siteMsg, site vtime.SiteID) int { return cmp.Compare(m.site, site) })
	switch {
	case found:
		return &all[i]
	case f.large == nil && f.n < len(f.small):
		copy(f.small[i+1:f.n+1], f.small[i:f.n])
		f.small[i] = siteMsg{site: site}
		f.n++
		return &f.small[i]
	case f.large == nil:
		f.large = slices.Clone(all)
	}
	f.large = slices.Insert(f.large, i, siteMsg{site: site})
	return &f.large[i]
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
	st.waitConfirms.add(site)
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
	for _, m := range out.all() {
		st.involved.add(m.site)
		if m.needsConfirm {
			s.awaitConfirm(st, m.site)
		}
	}

	// Delegated commit (paper §3.1): exactly one remote primary site, no
	// RC guesses, and that site receives updates. Never for a transaction
	// already denied here: the delegate would commit what the origin
	// aborts.
	var delegate vtime.SiteID
	if !st.denied && st.waitConfirms.len() == 1 && len(st.rcDeps) == 0 && st.extraPending == 0 {
		for _, m := range out.all() {
			if m.needsConfirm && len(m.updates) > 0 {
				delegate = m.site
			}
		}
	}

	for _, m := range out.all() {
		site := m.site
		// Each message is boxed once, for the outbox and the resend
		// record alike.
		var msg wire.Message
		switch {
		case len(m.updates) > 0:
			w := wire.Write{
				TxnVT:        st.vt,
				Origin:       s.id,
				Floor:        s.combinedGCFloor(),
				Updates:      m.updates,
				Checks:       m.checks,
				NeedsConfirm: m.needsConfirm,
			}
			if site == delegate {
				var others []vtime.SiteID
				for _, inv := range st.involved.sites {
					if inv != site {
						others = append(others, inv)
					}
				}
				w.Delegate = others
				st.delegatedTo = site
				st.waitConfirms.remove(site)
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
			msg = w
		case len(m.checks) > 0:
			s.trace(obs.EvPropagate, st.vt, site, "confirm")
			msg = wire.ConfirmRead{TxnVT: st.vt, Floor: s.combinedGCFloor(), Checks: m.checks}
		default:
			continue
		}
		if s.wal != nil {
			st.recordSent(site, msg)
		}
		s.send(site, msg)
	}
}

// recordSent retains msg, sent to site, for anti-entropy resends (see
// txnState.sentMsgs).
func (st *txnState) recordSent(site vtime.SiteID, msg wire.Message) {
	if st.sentMsgs == nil {
		st.sentMsgs = map[vtime.SiteID][]wire.Message{}
	}
	st.sentMsgs[site] = append(st.sentMsgs[site], msg)
}
