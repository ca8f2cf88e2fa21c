package engine

import (
	"reflect"
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
// update callback. It is safe to retain and read from any goroutine; its
// map and slices are shared with the engine, so they must not be written.
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
	ts     vtime.VT
	gen    uint64
	values map[ids.ObjectID]any
	// versions are the attached objects' state tokens, in attach order.
	versions []vtime.VT
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
	// notification, in attach order, for change lists.
	lastVersions []vtime.VT
	everNotified bool

	// snaps are the pessimistic proxy's uncommitted snapshots in VT
	// order; lastNotifiedVT is the paper's field of the same name.
	snaps          []*snapshot
	lastNotifiedVT vtime.VT
	// lostVT is the last straggler counted as a lost update, so one
	// transaction counts once however many attached objects it wrote.
	lostVT vtime.VT

	// Work queued for the batch's settleViews: dirty means the proxy is
	// on Site.dirtyViews, rerun that a rollback reverted attached state
	// (optimistic), committed the VTs that committed on attached objects
	// during the batch (pessimistic, in arrival order).
	dirty     bool
	rerun     bool
	committed []vtime.VT
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
		site: s,
		mode: mode,
		fns:  fns,
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
		p.lastVersions = make([]vtime.VT, len(p.attached))
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
			p.deliverPessimistic(p.buildSnapshot(ts, true))
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

// collectPendingAt adds to into the uncommitted transactions contributing
// to o's state at `at` (the snapshot's RC guesses), and returns it; into
// may be nil, and stays so when there are none.
func (o *object) collectPendingAt(at vtime.VT, into map[vtime.VT]bool) map[vtime.VT]bool {
	o.forEachDescendant(func(d *object) {
		if v, ok := d.hist.At(at); ok && v.Status == history.Pending {
			if into == nil {
				into = map[vtime.VT]bool{}
			}
			into[v.VT] = true
		}
	})
	return into
}

// buildSnapshot materializes a snapshot of the proxy's attached objects at
// ts. Its change list names every object on the first notification, and
// afterwards those whose state token moved since the last one — or whose
// value moved under the same token: a merge (Add) inserted or rolled
// back below an object's newest version changes the values above it
// without adding a version there.
func (p *viewProxy) buildSnapshot(ts vtime.VT, committedOnly bool) *snapshot {
	// A new snapshot can lower the GC floor below the batch cache.
	p.site.invalidateGCFloor()
	snap := &snapshot{ts: ts, wall: p.site.obs.NowNanos()}
	p.materialize(snap, committedOnly)
	for i, o := range p.attached {
		if !p.everNotified || snap.versions[i] != p.lastVersions[i] ||
			(p.cur != nil && !sameValue(snap.values[o.id], p.cur.values[o.id])) {
			snap.changed = append(snap.changed, o.id)
		}
	}
	return snap
}

// sameValue reports whether two materialized values are equal, without
// reflection for the scalar kinds.
func sameValue(a, b any) bool {
	switch a.(type) {
	case int64, float64, string, bool, nil:
		return a == b
	}
	return reflect.DeepEqual(a, b)
}

// materialize reads the attached objects' values and state tokens at
// snap.ts into fresh maps (and, for optimistic reads, the pending
// transactions they depend on).
func (p *viewProxy) materialize(snap *snapshot, committedOnly bool) {
	snap.values = make(map[ids.ObjectID]any, len(p.attached))
	snap.versions = make([]vtime.VT, len(p.attached))
	snap.rcDeps = nil
	for i, o := range p.attached {
		snap.values[o.id] = o.readValue(snap.ts, committedOnly)
		snap.versions[i] = o.stateTokenAt(snap.ts, committedOnly)
		if !committedOnly {
			snap.rcDeps = o.collectPendingAt(snap.ts, snap.rcDeps)
		}
	}
}

// data converts a snapshot into its user-facing form. It shares the
// snapshot's value map and change list, which are never written after
// they are built (materialize and deliverPessimistic replace them).
func (snap *snapshot) data(committed bool) SnapshotData {
	return SnapshotData{TS: snap.ts, Values: snap.values, Changed: snap.changed, Committed: committed}
}

// minSnapshotVT reports the lowest VT any of the proxy's live snapshots
// may still read (the GC floor contribution). The floor bounds what this
// site will still ask a primary: an optimistic snapshot holds it only
// while it awaits confirmations for a commit() callback, and a view
// without one asks nothing.
func (p *viewProxy) minSnapshotVT() (vtime.VT, bool) {
	min := vtime.VT{}
	found := false
	consider := func(v vtime.VT) {
		if !found || v.Less(min) {
			min, found = v, true
		}
	}
	if p.cur != nil && !p.cur.confirmed && p.fns.Commit != nil {
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
// Site-level scheduling hooks (called from the event loop). They only
// record what changed; settleViews does the view work once per batch,
// after the batch's decisions have left (DESIGN.md §10).
// ---------------------------------------------------------------------------

// markDirty queues p for the batch's settleViews.
func (s *Site) markDirty(p *viewProxy) {
	if !p.dirty {
		p.dirty = true
		s.dirtyViews = append(s.dirtyViews, p)
	}
}

// scheduleOptimistic marks the optimistic proxies observing objs dirty
// after transaction vt wrote them (a local execution or a remote update).
// A straggler — a write below a newer version of the same object — is
// one the view never shows, however its snapshots are scheduled: it is
// counted as a lost update here, where it is applied (paper §5.1.2), so
// coalescing cannot hide or invent one. (A write below the snapshot's TS
// to an object with nothing newer is shown by the next snapshot, so it
// is not lost.) Callers pass only the objects vt newly wrote, so a
// redundant trigger (a duplicate delivery) counts nothing.
func (s *Site) scheduleOptimistic(objs []*object, vt vtime.VT) {
	if len(s.proxies) == 0 {
		return
	}
	for _, o := range objs {
		straggler := vt.Less(o.latestVT())
		for _, p := range o.attachedProxies() {
			if p.mode != Optimistic || p.detached {
				continue
			}
			if straggler && p.lostVT != vt {
				p.lostVT = vt
				s.stats.LostUpdates.Add(1)
			}
			s.markDirty(p)
		}
	}
}

// onLocalCommit records that transaction vt's updates to objs committed
// at this site: each pessimistic proxy observing them queues vt for a
// snapshot.
func (s *Site) onLocalCommit(objs []*object, vt vtime.VT) {
	if len(s.proxies) == 0 {
		return
	}
	for _, o := range objs {
		for _, p := range o.attachedProxies() {
			if p.mode != Pessimistic || p.detached {
				continue
			}
			if n := len(p.committed); n == 0 || p.committed[n-1] != vt {
				p.committed = append(p.committed, vt)
			}
			s.markDirty(p)
		}
	}
}

// onLocalAbort records a rollback of objs: optimistic proxies rerun
// their snapshot against the reverted state, pessimistic proxies retry
// guesses that were waiting on the aborted transaction.
func (s *Site) onLocalAbort(objs []*object) {
	if len(s.proxies) == 0 {
		return
	}
	for _, o := range objs {
		for _, p := range o.attachedProxies() {
			if p.detached {
				continue
			}
			if p.mode == Optimistic {
				p.rerun = true
			}
			s.markDirty(p)
		}
	}
}

// settleViews runs the view work queued during the batch, once per dirty
// proxy. An optimistic proxy builds one snapshot of the current state,
// however many updates the batch applied (paper §4.1: optimistic views
// are lossy). A pessimistic proxy places a snapshot at every committed
// VT of the batch, in VT order, before it checks any of them: a
// permanent local RL denial does not hold a snapshot (it relies on the
// earlier commit's own snapshot to revise it), so checking a later VT
// before an earlier one of the same batch has its snapshot would deliver
// the later snapshot and lose the earlier one.
func (s *Site) settleViews() {
	for _, p := range s.dirtyViews {
		p.dirty = false
		switch {
		case p.detached:
		case p.mode == Pessimistic:
			p.settlePessimistic()
		default:
			p.settleOptimistic()
		}
	}
	clear(s.dirtyViews)
	s.dirtyViews = s.dirtyViews[:0]
}

// ---------------------------------------------------------------------------
// Optimistic proxy (paper §4.1).
// ---------------------------------------------------------------------------

// settleOptimistic brings the optimistic proxy up to date once per batch
// (paper §4.1: after a rollback the snapshot reruns with a new tS).
func (p *viewProxy) settleOptimistic() {
	if p.rerun {
		p.rerun = false
		if p.cur != nil {
			p.site.stats.SnapshotReruns.Add(1)
		}
	}
	p.runOptimistic()
}

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
	snap := p.buildSnapshot(ts, false)
	if len(snap.changed) == 0 && p.everNotified {
		// The batch did not change the observed state: its updates were
		// stragglers (counted where they were applied) or redundant.
		return
	}

	p.gen++
	snap.gen = p.gen
	p.cur = snap
	p.everNotified = true
	copy(p.lastVersions, snap.versions)
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
// "optimistic views are only notified of the latest update").
func (p *viewProxy) armOptDelivery() {
	if !p.optQueued.CompareAndSwap(false, true) {
		return // a queued closure will pick up the new payload
	}
	s := p.site
	s.notify(func() {
		p.optQueued.Store(false)
		d := p.optPending.Load()
		if d == nil || d.gen == p.optDelivered.Load() || p.latestGen.Load() != d.gen {
			return // already delivered, superseded mid-swap, or detached
		}
		p.optDelivered.Store(d.gen)
		s.obs.ObserveSince(s.stats.OptNotifyLatency, d.wall)
		p.fns.Update(d.data)
	})
}

// requestOptimisticGuesses registers the snapshot's RC and RL guesses
// (paper §4.1). A view without a commit() callback asks no primary: RL
// confirmations only decide a commit notification it cannot receive. Its
// RC guesses stay, because an aborted dependency is what counts an
// update inconsistency.
func (p *viewProxy) requestOptimisticGuesses(snap *snapshot) {
	s := p.site
	// RC guesses: wait for the outcomes of pending transactions whose
	// values the snapshot read.
	// VT-sorted: which dependencies are resolved (and in what order the
	// waiters fire) must not vary run to run, and the sorted key slice
	// also makes the delete-while-iterating below safe.
	for _, dep := range sortedVTs(snap.rcDeps) {
		if known, ok := s.outcomes.get(dep); ok {
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
	if p.fns.Commit == nil {
		return
	}
	// RL guesses: for each attached object read below ts, the interval
	// up to ts must be write-free at the object's primary copy.
	var checksBySite map[vtime.SiteID][]wire.ReadCheck
	for i, o := range p.attached {
		v := snap.versions[i]
		if !v.Less(snap.ts) {
			continue // read the value written at ts itself: no RL guess
		}
		root := o.replicationRoot()
		g := root.graph
		if g == nil || g.NumNodes() <= 1 {
			continue // unreplicated: local state is authoritative
		}
		primaryNode, _ := g.Primary()
		primarySite, _ := g.PrimarySite()
		if primarySite == s.id {
			// Local primary: the current value is by construction the
			// latest. No reservation is made: optimistic views tolerate
			// stragglers (a superseding notification repairs them,
			// §4.1), so they must not abort writers.
			continue
		}
		checksBySite = addReadCheck(checksBySite, primarySite, wire.ReadCheck{
			Target:    primaryNode,
			Path:      o.pathFromRoot(),
			ReadVT:    v,
			GraphVT:   root.graphVT,
			NoReserve: true,
		}, len(p.attached)-i)
	}
	if checksBySite == nil {
		return // every primary is local: nothing to ask
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
		s.send(site, wire.ConfirmRead{TxnVT: snap.ts, Floor: s.combinedGCFloor(), ReqID: reqID, Checks: checks})
	}
}

// addReadCheck files c under site in bySite and returns bySite. The map
// is made on a snapshot's first remote check, and each site's slice with
// room for the left attached objects not yet examined, so a snapshot
// allocates one slice per primary site instead of growing it check by
// check.
func addReadCheck(bySite map[vtime.SiteID][]wire.ReadCheck, site vtime.SiteID, c wire.ReadCheck, left int) map[vtime.SiteID][]wire.ReadCheck {
	if bySite == nil {
		bySite = map[vtime.SiteID][]wire.ReadCheck{}
	}
	checks := bySite[site]
	if checks == nil {
		checks = make([]wire.ReadCheck, 0, left)
	}
	bySite[site] = append(checks, c)
	return bySite
}

// checkOptimisticCommit delivers the commit notification once every guess
// of the proxy's current snapshot is confirmed (paper §4.1). A view
// without a commit() callback has none to deliver, and none is counted.
func (p *viewProxy) checkOptimisticCommit(snap *snapshot) {
	if p.fns.Commit == nil || p.cur != snap || snap.notifiedCommit || p.detached {
		return
	}
	if snap.pendingChecks > 0 || len(snap.rcDeps) > 0 {
		return
	}
	snap.confirmed = true
	snap.notifiedCommit = true
	p.site.stats.OptCommits.Add(1)
	p.site.trace(obs.EvCommitNotify, snap.ts, 0, "")
	gen := snap.gen
	p.site.notify(func() {
		if p.latestGen.Load() != gen {
			return // superseded before delivery
		}
		p.fns.Commit()
	})
}

// ---------------------------------------------------------------------------
// Pessimistic proxy (paper §4.2).
// ---------------------------------------------------------------------------

// settlePessimistic turns the batch's committed VTs into snapshots and
// checks them (see settleViews for why all are placed first). Every
// snapshot from the earliest insertion on is re-checked — its preceding
// boundary changed (paper §4.2) — as is any earlier one stalled on a
// transient denial that this batch's commits or aborts may have cleared.
// A snapshot reads its values only when delivered (deliverPessimistic).
func (p *viewProxy) settlePessimistic() {
	// An insertion shifts the later snapshots up, never below the
	// smallest index inserted so far, so from covers all of them.
	from := len(p.snaps)
	for _, vt := range p.committed {
		if i, ok := p.insertSnapshot(vt); ok && i < from {
			from = i
		}
	}
	p.committed = p.committed[:0]
	for i, sn := range p.snaps {
		if i >= from || (sn.transientWait && sn.pendingChecks == 0) {
			p.recheck(i)
		}
	}
	p.tryDeliver()
}

// insertSnapshot places a snapshot at committed VT cvt in VT order and
// returns its index; an existing snapshot at cvt is reused (a later
// message of the same transaction committed more of it). ok is false
// when cvt is at or below the notification watermark: a committed
// straggler there would violate monotonicity, reservations prevent it
// (§4.2), so it was already covered by a delivered snapshot.
func (p *viewProxy) insertSnapshot(cvt vtime.VT) (idx int, ok bool) {
	if cvt.LessEq(p.lastNotifiedVT) {
		return 0, false
	}
	idx = len(p.snaps)
	for i, sn := range p.snaps {
		if sn.ts == cvt {
			return i, true
		}
		if cvt.Less(sn.ts) {
			idx = i
			break
		}
	}
	// A new snapshot can lower the GC floor below the batch cache.
	p.site.invalidateGCFloor()
	p.snaps = slices.Insert(p.snaps, idx, &snapshot{ts: cvt, wall: p.site.obs.NowNanos()})
	return idx, true
}

// recheck re-requests snaps[i]'s RL guesses, invalidating replies to
// earlier requests.
func (p *viewProxy) recheck(i int) {
	snap := p.snaps[i]
	snap.checkEpoch++
	snap.pendingChecks = 0
	snap.confirmed = false
	snap.transientWait = false
	p.requestPessimisticGuesses(i)
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

	var checksBySite map[vtime.SiteID][]wire.ReadCheck
	for k, o := range p.attached {
		root := o.replicationRoot()
		g := root.graph
		if g == nil {
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
		if v, okv := o.hist.Get(snap.ts); okv && v.Status == history.Committed &&
			!v.ReadVT.IsZero() && v.ReadVT != v.VT && v.ReadVT.LessEq(prev) {
			pv, okPrev := o.hist.At(vtime.JustBelow(snap.ts))
			if !okPrev || pv.VT.LessEq(prev) {
				continue
			}
		}
		// An unreplicated object is its own primary, so it is checked
		// here like any other: a lower writer still pending holds the
		// snapshot back.
		primaryNode, _ := g.Primary()
		primarySite, _ := g.PrimarySite()
		// A permanent local denial holds nothing: a committed update in
		// the interval has its own snapshot, placed before this one by
		// settlePessimistic, which revises us; a removed path has nothing
		// left to check.
		if primarySite == s.id && o == root && primaryNode == root.id {
			// The object is the primary copy itself: nothing to resolve.
			own := guess{target: o, groot: root, readVT: prev, graphVT: root.graphVT, committedOnly: true}
			if s.checkGuess(nil, snap.ts, own).transient {
				snap.transientWait = true
			}
			continue
		}
		c := wire.ReadCheck{
			Target:        primaryNode,
			Path:          o.pathFromRoot(),
			ReadVT:        prev,
			GraphVT:       root.graphVT,
			CommittedOnly: true,
		}
		if primarySite == s.id {
			if s.checkAtPrimary(nil, snap.ts, nil, []wire.ReadCheck{c}).transient {
				snap.transientWait = true
			}
			continue
		}
		checksBySite = addReadCheck(checksBySite, primarySite, c, len(p.attached)-k)
	}
	if checksBySite == nil {
		return
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
				if !p.dirty {
					// A dirty proxy delivers in settleViews, once the
					// batch's commits have their snapshots.
					p.tryDeliver()
				}
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
		s.send(site, wire.ConfirmRead{TxnVT: snap.ts, Floor: s.combinedGCFloor(), ReqID: reqID, Checks: checks})
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

// tryDeliver notifies committed snapshots in VT order (paper §4.2:
// "When one or more snapshots commit, the view is notified, once for each
// committed snapshot, in VT sequence").
func (p *viewProxy) tryDeliver() {
	for len(p.snaps) > 0 {
		snap := p.snaps[0]
		if snap.pendingChecks > 0 || snap.transientWait {
			return
		}
		p.snaps = slices.Delete(p.snaps, 0, 1) // keeps the capacity
		p.deliverPessimistic(snap)
	}
}

// deliverPessimistic sends one committed snapshot to the view.
func (p *viewProxy) deliverPessimistic(snap *snapshot) {
	if snap.values == nil {
		// Read once, on delivery: the checks that cleared the snapshot
		// hold (prev, ts) free of commits, so its committed state cannot
		// have changed since, however often it was re-checked.
		p.materialize(snap, true)
	}
	// Compute the change list against the previously notified state.
	snap.changed = nil
	first := !p.everNotified
	for i, o := range p.attached {
		if first || snap.versions[i] != p.lastVersions[i] {
			snap.changed = append(snap.changed, o.id)
		}
	}
	copy(p.lastVersions, snap.versions)
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
