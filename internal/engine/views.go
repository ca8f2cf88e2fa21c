package engine

import (
	"slices"
	"sync/atomic"

	"decaf/internal/history"
	"decaf/internal/ids"
	"decaf/internal/obs"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// ViewMode selects the notification protocol for an attached view
// (paper §2.5.1).
type ViewMode int

const (
	// Optimistic views are notified as soon as a transaction executes
	// locally, possibly before it commits; they may observe state that
	// is later rolled back, and receive a commit notification when their
	// latest snapshot is known committed.
	Optimistic ViewMode = iota + 1
	// Pessimistic views are notified only of committed snapshots, one
	// per committed update, in monotonic VT order.
	Pessimistic
)

// SnapshotData is the immutable state snapshot delivered to a view's
// update callback. It is safe to retain and read from any goroutine.
type SnapshotData struct {
	// TS is the snapshot's virtual time.
	TS vtime.VT
	// Values maps each attached object to its materialized value at TS
	// (scalars; []any for lists; map[string]any for tuples;
	// []wire.Relationship for associations).
	Values map[ids.ObjectID]any
	// Changed lists the attached objects whose value changed since the
	// view's previous notification (paper §2.5: incremental tracking).
	Changed []ids.ObjectID
	// Committed reports whether this snapshot contains only committed
	// state (always true for pessimistic views).
	Committed bool
}

// ViewFuncs are the user callbacks of a view object. Update corresponds to
// the paper's update() method; Commit (optional, optimistic views only)
// corresponds to commit().
type ViewFuncs struct {
	Update func(SnapshotData)
	Commit func()
}

// snapshot is the engine-internal snapshot object (paper §4: "For every
// view notification initiated, a snapshot object is created").
type snapshot struct {
	ts       vtime.VT
	gen      uint64
	values   map[ids.ObjectID]any
	versions map[*object]vtime.VT
	changed  []ids.ObjectID
	// pendingChecks counts outstanding remote RL confirmations.
	pendingChecks int
	// rcDeps are uncommitted transactions whose values the snapshot read.
	rcDeps map[vtime.VT]bool
	// confirmed is set when every guess has been confirmed.
	confirmed bool
	// notifiedCommit is set once the commit callback was delivered.
	notifiedCommit bool
	// transientWait marks a pessimistic snapshot awaiting an in-flight
	// transaction's outcome before its guesses can be confirmed.
	transientWait bool
	// checkEpoch invalidates stale confirm replies after a revision.
	checkEpoch uint64
	// wall is the Observer.NowNanos stamp of snapshot creation (0 with
	// timing disabled); notification latency is measured from it.
	wall int64
}

// viewProxy manages the snapshots of one attached view (paper §4: "All the
// snapshots associated with a particular user level view object are
// managed internally by a view proxy object").
type viewProxy struct {
	site     *Site
	mode     ViewMode
	fns      ViewFuncs
	attached []*object
	detached bool

	// gen orders optimistic snapshots; latestGen gates delivery so only
	// the newest queued notification reaches the user (lossy delivery,
	// paper §4.1). Accessed from the notifier goroutine, hence atomic.
	gen       uint64
	latestGen atomic.Uint64

	// Optimistic update deliveries coalesce: optPending always holds the
	// newest undelivered payload (written by the event loop, read by the
	// notifier), optQueued arms at most one delivery closure in the
	// notify queue, and optDelivered is the last generation actually
	// handed to the user. Keeping a single armed closure per view means
	// queue overflow can delay the latest snapshot but never lose it.
	optPending   atomic.Pointer[optPayload]
	optQueued    atomic.Bool
	optDelivered atomic.Uint64

	// cur is the single uncommitted optimistic snapshot (paper §4.1:
	// "An optimistic view proxy maintains at most one uncommitted
	// snapshot").
	cur *snapshot
	// lastVersions tracks the per-object state identity at the last
	// notification, for change lists and lost-update accounting.
	lastVersions map[*object]vtime.VT
	everNotified bool

	// snaps are the pessimistic proxy's uncommitted snapshots in VT
	// order; lastNotifiedVT is the paper's field of the same name.
	snaps          []*snapshot
	lastNotifiedVT vtime.VT
}

// ViewHandle identifies an attached view for later detachment.
type ViewHandle struct {
	s *Site
	p *viewProxy
}

// Detach removes the view; no further notifications are delivered.
func (h *ViewHandle) Detach() {
	if h == nil || h.s == nil {
		return
	}
	_ = h.s.call(func() {
		h.p.detached = true
		// Invalidate the generation gates so deliveries already queued
		// (or armed) in the notifier never reach the detached view.
		h.p.latestGen.Add(1)
		for _, o := range h.p.attached {
			o.proxies = removeProxy(o.proxies, h.p)
		}
		h.s.proxies = removeProxy(h.s.proxies, h.p)
	})
}

// removeProxy removes the first occurrence of p from list, in place.
func removeProxy(list []*viewProxy, p *viewProxy) []*viewProxy {
	if i := slices.Index(list, p); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// AttachView attaches a view to the given model objects (paper §2.5:
// views attach locally). The view immediately receives an initial update
// notification carrying the current state.
func (s *Site) AttachView(refs []ObjRef, mode ViewMode, fns ViewFuncs) (*ViewHandle, error) {
	if fns.Update == nil {
		return nil, errInvalidView
	}
	p := &viewProxy{
		site:         s,
		mode:         mode,
		fns:          fns,
		lastVersions: map[*object]vtime.VT{},
	}
	err := s.call(func() {
		for _, r := range refs {
			if r.o == nil {
				continue
			}
			p.attached = append(p.attached, r.o)
			r.o.proxies = append(r.o.proxies, p)
		}
		if len(p.attached) > 0 {
			s.proxies = append(s.proxies, p)
		}
		switch mode {
		case Pessimistic:
			// Start from the latest committed state.
			ts := vtime.Zero
			for _, o := range p.attached {
				if v, ok := o.hist.CurrentCommitted(); ok {
					ts = ts.Max(v.VT)
				}
				ts = ts.Max(o.latestCommittedVT())
			}
			p.lastNotifiedVT = ts
			p.deliverPessimistic(p.buildSnapshot(ts, true, true))
		default:
			p.runOptimistic()
		}
	})
	if err != nil {
		return nil, err
	}
	return &ViewHandle{s: s, p: p}, nil
}

var errInvalidView = &viewError{"view requires an Update callback"}

type viewError struct{ msg string }

func (e *viewError) Error() string { return "engine: " + e.msg }

// ---------------------------------------------------------------------------
// Shared snapshot construction.
// ---------------------------------------------------------------------------

// stateTokenAt returns the VT identifying o's state at `at`: the maximum
// version VT at or below `at` across o and its descendants.
func (o *object) stateTokenAt(at vtime.VT, committedOnly bool) vtime.VT {
	tok := vtime.Zero
	o.forEachDescendant(func(d *object) {
		var v history.Version
		var ok bool
		if committedOnly {
			v, ok = d.hist.CommittedAt(at)
		} else {
			v, ok = d.hist.At(at)
		}
		if ok {
			tok = tok.Max(v.VT)
		}
	})
	return tok
}

// latestCommittedVT returns the newest committed version VT across o and
// its descendants.
func (o *object) latestCommittedVT() vtime.VT {
	tok := vtime.Zero
	o.forEachDescendant(func(d *object) {
		if v, ok := d.hist.CurrentCommitted(); ok {
			tok = tok.Max(v.VT)
		}
	})
	return tok
}

// collectPendingAt gathers the uncommitted transactions contributing to
// o's state at `at` (the snapshot's RC guesses).
func (o *object) collectPendingAt(at vtime.VT, into map[vtime.VT]bool) {
	o.forEachDescendant(func(d *object) {
		if v, ok := d.hist.At(at); ok && v.Status == history.Pending {
			into[v.VT] = true
		}
	})
}

// buildSnapshot materializes a snapshot of the proxy's attached objects at
// ts.
func (p *viewProxy) buildSnapshot(ts vtime.VT, committedOnly, markAllChanged bool) *snapshot {
	// A new snapshot can lower the GC floor below the batch cache.
	p.site.invalidateGCFloor()
	snap := &snapshot{
		ts:       ts,
		values:   make(map[ids.ObjectID]any, len(p.attached)),
		versions: make(map[*object]vtime.VT, len(p.attached)),
		rcDeps:   map[vtime.VT]bool{},
		wall:     p.site.obs.NowNanos(),
	}
	for _, o := range p.attached {
		snap.values[o.id] = o.readValue(ts, committedOnly)
		snap.versions[o] = o.stateTokenAt(ts, committedOnly)
		if !committedOnly {
			o.collectPendingAt(ts, snap.rcDeps)
		}
	}
	for _, o := range p.attached {
		if markAllChanged || snap.versions[o] != p.lastVersions[o] {
			snap.changed = append(snap.changed, o.id)
		}
	}
	return snap
}

// data converts a snapshot into its immutable user-facing form.
func (snap *snapshot) data(committed bool) SnapshotData {
	vals := make(map[ids.ObjectID]any, len(snap.values))
	for k, v := range snap.values {
		vals[k] = v
	}
	changed := make([]ids.ObjectID, len(snap.changed))
	copy(changed, snap.changed)
	return SnapshotData{TS: snap.ts, Values: vals, Changed: changed, Committed: committed}
}

// minSnapshotVT reports the lowest VT any of the proxy's live snapshots
// may still read (the GC floor contribution).
func (p *viewProxy) minSnapshotVT() (vtime.VT, bool) {
	min := vtime.VT{}
	found := false
	consider := func(v vtime.VT) {
		if !found || v.Less(min) {
			min, found = v, true
		}
	}
	if p.cur != nil && !p.cur.confirmed {
		consider(p.cur.ts)
	}
	for _, sn := range p.snaps {
		consider(sn.ts)
	}
	if p.mode == Pessimistic {
		consider(p.lastNotifiedVT)
	}
	return min, found
}

// ---------------------------------------------------------------------------
// Site-level scheduling hooks (called from the event loop).
// ---------------------------------------------------------------------------

// proxiesOf collects the distinct view proxies observing any of objs.
func proxiesOf(objs []*object, mode ViewMode) []*viewProxy {
	var out []*viewProxy
	for _, o := range objs {
		for _, p := range o.attachedProxies() {
			if p.mode == mode && !p.detached && !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// scheduleOptimistic notifies optimistic proxies that attached objects
// changed (a local execution, a remote update, or a rollback).
func (s *Site) scheduleOptimistic(objs []*object) {
	if len(s.proxies) == 0 {
		return
	}
	for _, p := range proxiesOf(objs, Optimistic) {
		p.runOptimistic()
	}
}

// onLocalCommit reacts to a transaction's updates becoming committed at
// this site: pessimistic snapshots are created, optimistic transient
// states re-examined.
func (s *Site) onLocalCommit(objs []*object, vt vtime.VT) {
	if len(s.proxies) == 0 {
		return
	}
	for _, p := range proxiesOf(objs, Pessimistic) {
		p.onCommitted(vt)
	}
	for _, p := range proxiesOf(objs, Pessimistic) {
		p.retryPending()
	}
}

// onLocalAbort reacts to a rollback: optimistic proxies rerun their
// snapshot against the reverted state; pessimistic proxies retry guesses
// that were waiting on the aborted transaction.
func (s *Site) onLocalAbort(objs []*object) {
	if len(s.proxies) == 0 {
		return
	}
	for _, p := range proxiesOf(objs, Optimistic) {
		p.rerunAfterAbort()
	}
	for _, p := range proxiesOf(objs, Pessimistic) {
		p.retryPending()
	}
}

// ---------------------------------------------------------------------------
// Optimistic proxy (paper §4.1).
// ---------------------------------------------------------------------------

// runOptimistic creates and schedules a fresh optimistic snapshot at the
// greatest VT of the attached objects' current values.
func (p *viewProxy) runOptimistic() {
	if p.detached {
		return
	}
	ts := vtime.Zero
	for _, o := range p.attached {
		ts = ts.Max(o.latestVT())
	}
	snap := p.buildSnapshot(ts, false, !p.everNotified)

	if p.cur != nil && p.cur.ts == snap.ts && versionsEqual(p.cur.versions, snap.versions) {
		// The triggering update did not change the observed state: a
		// straggler older than the current snapshot — a lost update
		// (paper §5.1.2) — or a redundant trigger.
		if p.everNotified {
			p.site.stats.LostUpdates.Add(1)
		}
		return
	}
	if len(snap.changed) == 0 && p.everNotified {
		return
	}

	p.gen++
	snap.gen = p.gen
	p.cur = snap
	p.everNotified = true
	for o, v := range snap.versions {
		p.lastVersions[o] = v
	}
	p.latestGen.Store(snap.gen)

	s := p.site
	s.stats.OptNotifications.Add(1)
	s.trace(obs.EvOptNotify, snap.ts, 0, "")
	p.optPending.Store(&optPayload{gen: snap.gen, data: snap.data(false), wall: snap.wall})
	p.armOptDelivery()

	p.requestOptimisticGuesses(snap)
	p.checkOptimisticCommit(snap)
}

// optPayload is one optimistic update ready for delivery.
type optPayload struct {
	gen  uint64
	data SnapshotData
	wall int64
}

// armOptDelivery queues at most one delivery closure for this proxy.
// The closure reads optPending at delivery time, so payloads
// superseded while queued coalesce into the newest one (paper §4.1:
// "optimistic views are only notified of the latest update"). If the
// notify queue rejects the closure (overflow), the arm is released and
// the next trigger retries — backpressure delays the latest snapshot
// but cannot lose it.
func (p *viewProxy) armOptDelivery() {
	if !p.optQueued.CompareAndSwap(false, true) {
		return // a queued closure will pick up the new payload
	}
	s := p.site
	if s.notify(func() {
		p.optQueued.Store(false)
		d := p.optPending.Load()
		if d == nil || d.gen == p.optDelivered.Load() || p.latestGen.Load() != d.gen {
			return // already delivered, superseded mid-swap, or detached
		}
		p.optDelivered.Store(d.gen)
		s.obs.ObserveSince(s.stats.OptNotifyLatency, d.wall)
		p.fns.Update(d.data)
	}) {
		return
	}
	p.optQueued.Store(false)
}

// versionsEqual compares per-object state tokens.
func versionsEqual(a, b map[*object]vtime.VT) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// requestOptimisticGuesses registers the snapshot's RC and RL guesses
// (paper §4.1).
func (p *viewProxy) requestOptimisticGuesses(snap *snapshot) {
	s := p.site
	// RC guesses: wait for the outcomes of pending transactions whose
	// values the snapshot read.
	// VT-sorted: which dependencies are resolved (and in what order the
	// waiters fire) must not vary run to run, and the sorted key slice
	// also makes the delete-while-iterating below safe.
	for _, dep := range sortedVTs(snap.rcDeps) {
		if known, ok := s.outcomes[dep]; ok {
			if known {
				delete(snap.rcDeps, dep)
				continue
			}
			// Read an aborted value; a rollback rerun will follow.
			return
		}
		s.rcWaiters[dep] = append(s.rcWaiters[dep], func(committed bool) {
			if p.cur != snap || p.detached {
				return
			}
			if committed {
				delete(snap.rcDeps, dep)
				p.checkOptimisticCommit(snap)
			} else {
				// The snapshot exposed rolled-back state (an update
				// inconsistency); onLocalAbort triggers the rerun.
				s.stats.UpdateInconsistencies.Add(1)
			}
		})
	}
	// RL guesses: for each attached object read below ts, the interval
	// up to ts must be write-free at the object's primary copy.
	checksBySite := map[vtime.SiteID][]wire.ReadCheck{}
	for _, o := range p.attached {
		v := snap.versions[o]
		if !v.Less(snap.ts) {
			continue // read the value written at ts itself: no RL guess
		}
		root := o.replicationRoot()
		g := root.graph
		if g == nil || g.NumNodes() <= 1 {
			continue // unreplicated: local state is authoritative
		}
		primaryNode, _ := g.Primary()
		primarySite, _ := g.SiteOf(primaryNode)
		if primarySite == s.id {
			// Local primary: the current value is by construction the
			// latest. No reservation is made: optimistic views tolerate
			// stragglers (a superseding notification repairs them,
			// §4.1), so they must not abort writers.
			continue
		}
		checksBySite[primarySite] = append(checksBySite[primarySite], wire.ReadCheck{
			Target:    primaryNode,
			Path:      o.pathFromRoot(),
			ReadVT:    v,
			GraphVT:   root.graphVT,
			NoReserve: true,
		})
	}
	// Site-sorted: reqID assignment and the outbound message schedule
	// must be a pure function of protocol state.
	for _, site := range sortedSites(checksBySite) {
		checks := checksBySite[site]
		reqID := s.newReqID()
		snap.pendingChecks++
		s.confirmWaiters[reqID] = func(c wire.Confirm) {
			if p.cur != snap || p.detached {
				return
			}
			if c.OK {
				snap.pendingChecks--
				p.checkOptimisticCommit(snap)
			}
			// Denials need no action: the straggler (or its outcome)
			// will reach this site and trigger a superseding
			// notification (paper §4.1).
		}
		s.send(site, wire.ConfirmRead{TxnVT: snap.ts, Origin: s.id, ReqID: reqID, Checks: checks})
	}
}

// checkOptimisticCommit delivers the commit notification once every guess
// of the proxy's current snapshot is confirmed (paper §4.1).
func (p *viewProxy) checkOptimisticCommit(snap *snapshot) {
	if p.cur != snap || snap.notifiedCommit || p.detached {
		return
	}
	if snap.pendingChecks > 0 || len(snap.rcDeps) > 0 {
		return
	}
	snap.confirmed = true
	snap.notifiedCommit = true
	p.site.stats.OptCommits.Add(1)
	p.site.trace(obs.EvCommitNotify, snap.ts, 0, "")
	if p.fns.Commit == nil {
		return
	}
	gen := snap.gen
	p.site.notify(func() {
		if p.latestGen.Load() != gen {
			return // superseded before delivery
		}
		p.fns.Commit()
	})
}

// rerunAfterAbort recomputes the optimistic snapshot after a rollback
// reverted attached state (paper §4.1: rerun with a new tS).
func (p *viewProxy) rerunAfterAbort() {
	if p.cur == nil {
		p.runOptimistic()
		return
	}
	p.site.stats.SnapshotReruns.Add(1)
	p.runOptimistic()
}

// ---------------------------------------------------------------------------
// Pessimistic proxy (paper §4.2).
// ---------------------------------------------------------------------------

// onCommitted reacts to a committed update at VT cvt touching an attached
// object: a snapshot is created at cvt and later snapshots are revised.
func (p *viewProxy) onCommitted(cvt vtime.VT) {
	if p.detached {
		return
	}
	if cvt.LessEq(p.lastNotifiedVT) {
		// A committed straggler below the notification watermark would
		// violate monotonicity; reservations prevent this (§4.2), so
		// this indicates it was already covered by a delivered snapshot.
		return
	}
	idx := len(p.snaps)
	for i, sn := range p.snaps {
		if sn.ts == cvt {
			// Refresh and revise from here (values may now include the
			// newly committed straggler).
			p.reviseFrom(i)
			p.tryDeliver()
			return
		}
		if cvt.Less(sn.ts) {
			idx = i
			break
		}
	}
	// A new snapshot can lower the GC floor below the batch cache.
	p.site.invalidateGCFloor()
	snap := &snapshot{ts: cvt, rcDeps: map[vtime.VT]bool{}, wall: p.site.obs.NowNanos()}
	p.snaps = append(p.snaps, nil)
	copy(p.snaps[idx+1:], p.snaps[idx:])
	p.snaps[idx] = snap
	// Revise the new snapshot and every later one (their preceding-VT
	// boundary changed, paper §4.2).
	p.reviseFrom(idx)
	p.tryDeliver()
}

// reviseFrom rebuilds values and re-requests guesses for snaps[i:].
func (p *viewProxy) reviseFrom(i int) {
	for ; i < len(p.snaps); i++ {
		snap := p.snaps[i]
		snap.checkEpoch++
		snap.pendingChecks = 0
		snap.confirmed = false
		snap.transientWait = false
		rebuilt := p.buildSnapshot(snap.ts, true, false)
		snap.values = rebuilt.values
		snap.versions = rebuilt.versions
		p.requestPessimisticGuesses(i)
	}
}

// prevBoundary returns the VT preceding snaps[i]: the previous snapshot's
// ts, or lastNotifiedVT.
func (p *viewProxy) prevBoundary(i int) vtime.VT {
	if i == 0 {
		return p.lastNotifiedVT
	}
	return p.snaps[i-1].ts
}

// requestPessimisticGuesses registers the RL guesses of snaps[i]: for
// every attached object, the interval from the preceding snapshot to ts
// must be free of committed updates (paper §4.2).
func (p *viewProxy) requestPessimisticGuesses(i int) {
	s := p.site
	snap := p.snaps[i]
	prev := p.prevBoundary(i)
	epoch := snap.checkEpoch

	checksBySite := map[vtime.SiteID][]wire.ReadCheck{}
	for _, o := range p.attached {
		root := o.replicationRoot()
		g := root.graph
		if g == nil || g.NumNodes() <= 1 {
			continue
		}
		// Eager confirmation (paper §5.1.2): when the object was updated
		// by the committing transaction itself AND that transaction's own
		// confirmed RL reservation (tR, tT] covers the snapshot interval
		// (prev, tS) — i.e. it was a read-write whose tR is at or before
		// the preceding boundary — the primary has already validated and
		// reserved the interval: no separate CONFIRM-READ round trip and
		// full straggler protection. Blind writes (tR = tT) reserve
		// nothing, so they take the explicit check below.
		if v, okv := o.hist.Get(snap.ts); !s.opts.DisableEagerConfirm && okv && v.Status == history.Committed &&
			!v.ReadVT.IsZero() && v.ReadVT != v.VT && v.ReadVT.LessEq(prev) {
			pv, okPrev := o.hist.At(vtime.JustBelow(snap.ts))
			if !okPrev || pv.VT.LessEq(prev) {
				continue
			}
		}
		primaryNode, _ := g.Primary()
		primarySite, _ := g.SiteOf(primaryNode)
		if primarySite == s.id {
			target := s.resolveCheckTarget(primaryNode, o.pathFromRoot())
			if target == nil {
				continue
			}
			ok, reason := s.primaryCheck(target, root, prev, root.graphVT, snap.ts, false, true)
			if !ok {
				if isTransientReason(reason) {
					snap.transientWait = true
				}
				// A permanent local denial means a committed update in
				// the interval: its own onCommitted will insert an
				// earlier snapshot and revise us.
				continue
			}
			continue
		}
		checksBySite[primarySite] = append(checksBySite[primarySite], wire.ReadCheck{
			Target:        primaryNode,
			Path:          o.pathFromRoot(),
			ReadVT:        prev,
			GraphVT:       root.graphVT,
			CommittedOnly: true,
		})
	}
	// Site-sorted for the same reason as requestOptimisticGuesses.
	for _, site := range sortedSites(checksBySite) {
		checks := checksBySite[site]
		reqID := s.newReqID()
		snap.pendingChecks++
		s.confirmWaiters[reqID] = func(c wire.Confirm) {
			if p.detached || snap.checkEpoch != epoch || !p.contains(snap) {
				return
			}
			if c.OK {
				snap.pendingChecks--
				p.tryDeliver()
				return
			}
			if c.Transient {
				snap.pendingChecks--
				snap.transientWait = true
				return
			}
			// Permanent denial: a committed update exists in the
			// interval at the primary and will reach this site, insert
			// an earlier snapshot, and revise this one. Nothing to do.
		}
		s.send(site, wire.ConfirmRead{TxnVT: snap.ts, Origin: s.id, ReqID: reqID, Checks: checks})
	}
}

// contains reports whether snap is still managed by the proxy.
func (p *viewProxy) contains(snap *snapshot) bool {
	for _, sn := range p.snaps {
		if sn == snap {
			return true
		}
	}
	return false
}

// retryPending re-requests guesses for snapshots stalled on transient
// denials (an in-flight transaction settled).
func (p *viewProxy) retryPending() {
	for i, sn := range p.snaps {
		if sn.transientWait && sn.pendingChecks == 0 {
			sn.transientWait = false
			sn.checkEpoch++
			rebuilt := p.buildSnapshot(sn.ts, true, false)
			sn.values = rebuilt.values
			sn.versions = rebuilt.versions
			p.requestPessimisticGuesses(i)
		}
	}
	p.tryDeliver()
}

// tryDeliver notifies committed snapshots in VT order (paper §4.2:
// "When one or more snapshots commit, the view is notified, once for each
// committed snapshot, in VT sequence").
func (p *viewProxy) tryDeliver() {
	for len(p.snaps) > 0 {
		snap := p.snaps[0]
		if snap.pendingChecks > 0 || snap.transientWait {
			return
		}
		p.snaps = p.snaps[1:]
		p.deliverPessimistic(snap)
	}
}

// deliverPessimistic sends one committed snapshot to the view.
func (p *viewProxy) deliverPessimistic(snap *snapshot) {
	// Compute the change list against the previously notified state.
	snap.changed = nil
	first := !p.everNotified
	for _, o := range p.attached {
		v := snap.versions[o]
		if first || v != p.lastVersions[o] {
			snap.changed = append(snap.changed, o.id)
		}
		p.lastVersions[o] = v
	}
	if snap.versions == nil {
		for _, o := range p.attached {
			snap.changed = append(snap.changed, o.id)
		}
	}
	p.everNotified = true
	p.lastNotifiedVT = snap.ts
	data := snap.data(true)
	s := p.site
	s.stats.PessNotifications.Add(1)
	s.trace(obs.EvPessNotify, snap.ts, 0, "")
	wall := snap.wall
	s.notify(func() {
		s.obs.ObserveSince(s.stats.PessNotifyLatency, wall)
		p.fns.Update(data)
	})
}
