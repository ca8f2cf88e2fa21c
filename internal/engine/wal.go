package engine

import (
	"fmt"
	"io"

	"decaf/internal/ids"
	"decaf/internal/vtime"
	"decaf/internal/wal"
	"decaf/internal/wire"
)

// Durable update log and anti-entropy sync (DESIGN.md §13).
//
// When Options.WAL is set, the site appends every protocol message that
// can change committed state — received Writes and FastWrites, received
// Outcomes, and its own local commit/abort decisions — to the write-ahead
// log before the batch's messages and results leave: the log buffers the
// appends, and endBatch's writeAhead writes them in one go (group commit)
// before it releases the batch's commit results and flushes its outbox.
// Checkpoint() writes a covering RecordMark; Recover() replays the log
// tail over the newest checkpoint; the SyncRequest/SyncUpdates exchange
// ships missing records to a reconnecting peer.
//
// Concurrency contract: every function in this file that touches s.wal
// runs on the event loop (the WAL's single-writer contract) and never
// under a lock — file I/O under a mutex is exactly what the lockedsend
// analyzer rejects.

// walAppendMsg appends one wire-encoded message to the log, stamped with
// the transaction VT so floor queries need not decode payloads. The
// message is encoded into the site's scratch buffer, which the log copies
// from, so a steady-state append allocates nothing. Append failures
// degrade durability, not availability: they are counted and logged, and
// the site keeps running.
func (s *Site) walAppendMsg(vt vtime.VT, msg wire.Message) {
	if s.wal == nil {
		return
	}
	b, err := wire.AppendMessage(s.walBuf[:0], msg)
	s.walBuf = b
	if err != nil {
		s.stats.WALAppendErrors.Inc()
		s.log.Warn("wal encode failed", "txn", vt.String(), "err", err)
		return
	}
	if err := s.wal.Append(wal.Record{Kind: wal.RecordMessage, Origin: vt.Site, Time: vt.Time, Payload: b}); err != nil {
		s.stats.WALAppendErrors.Inc()
		s.log.Warn("wal append failed", "txn", vt.String(), "err", err)
	}
}

// walLogWrite logs a received Write before it is applied.
func (s *Site) walLogWrite(m wire.Write) {
	if s.wal == nil {
		return
	}
	s.walAppendMsg(m.TxnVT, m)
}

// walLogFastWrite logs a received FastWrite. The caller has already run
// the duplicate guard, so a replayed log never carries the same
// (non-idempotent) FastWrite twice.
func (s *Site) walLogFastWrite(m wire.FastWrite) {
	if s.wal == nil {
		return
	}
	s.walAppendMsg(m.TxnVT, m)
}

// walLogOutcome logs a received summary outcome, skipping exact
// duplicates of an already-recorded decision.
func (s *Site) walLogOutcome(m wire.Outcome) {
	if s.wal == nil {
		return
	}
	if known, ok := s.outcomes.get(m.TxnVT); ok && known == m.Committed {
		return
	}
	s.walAppendMsg(m.TxnVT, m)
}

// walLogRepair logs a decided graph repair as a RepairLearn record. On
// replay the record restores the repaired graphs and the repairDecided
// latch, so a recovered site never re-litigates a repair its pre-crash
// incarnation already applied. Orphans the repair's failed site left
// behind were decided by commit queries and logged as Outcomes.
func (s *Site) walLogRepair(v wire.RepairValue) {
	if s.wal == nil {
		return
	}
	s.walAppendMsg(v.GraphVT, wire.RepairLearn{FailedSite: v.FailedSite, Value: v})
}

// walOwnUpdates logs the updates a transaction committed at its origin
// applied there at execution: they never passed through handleMessage,
// so nothing else logs them. The record is the one replay expects — a
// FastWrite for a fast-path commit, a Write otherwise. The decision
// itself is logged where it is made (decide) or received
// (handleMessage); a FastWrite is its own.
//
// A join (the one transaction with a retryFn) is not logged: anti-entropy
// would ship its record to gB's replicas, which the join never addressed
// (DESIGN.md §17).
func (s *Site) walOwnUpdates(st *txnState) {
	if st.retryFn != nil {
		return
	}
	var updates []wire.Update
	for _, w := range st.writes {
		updates = w.appendUpdates(updates, w.obj.replicationRoot().id, w.path())
	}
	if len(updates) == 0 {
		return
	}
	var rec wire.Message = wire.Write{TxnVT: st.vt, Origin: s.id, Updates: updates}
	if st.fast {
		rec = wire.FastWrite{TxnVT: st.vt, Origin: s.id, Updates: updates}
	}
	s.walAppendMsg(st.vt, rec)
}

// floorList snapshots the sync floors in deterministic (site) order.
// With a WAL the own-origin floor is first read off decidedFloor: every
// own transaction below it is decided, and a decided one has its
// outcome and updates in the log, so all of them can be shipped. Floors
// are per-origin time lines — the origin is fixed, so the plain time
// suffices, and Time−1 stays below an undecided own transaction at
// decidedFloor's Time. The floor never moves back.
func (s *Site) floorList() []wire.SyncFloor {
	if s.wal != nil {
		if t := s.decidedFloor().Time; t > s.syncFloors[s.id]+1 {
			s.syncFloors[s.id] = t - 1
		}
	}
	out := make([]wire.SyncFloor, 0, len(s.syncFloors))
	for _, site := range sortedSites(s.syncFloors) {
		out = append(out, wire.SyncFloor{Site: site, Time: s.syncFloors[site]})
	}
	return out
}

// ---------------------------------------------------------------------------
// Crash recovery.
// ---------------------------------------------------------------------------

// Recover restores this (fresh, same-ID, WAL-attached) site from a
// checkpoint plus the write-ahead log: the checkpoint is loaded, then
// every logged record after the checkpoint's covering marker is
// replayed. Writes whose outcome the log records as committed re-apply
// as committed; writes still undecided at the crash are skipped — their
// fate is learned from peers through the ordinary §3 confirmation or a
// later anti-entropy session, never guessed locally. r may be nil when
// no checkpoint was ever taken (the whole log replays over an empty
// site).
func (s *Site) Recover(r io.Reader) error {
	if s.wal == nil {
		return fmt.Errorf("engine: Recover requires Options.WAL")
	}
	var cp wire.Checkpoint
	haveCP := false
	if r != nil {
		data, err := io.ReadAll(r)
		if err != nil {
			return fmt.Errorf("engine: read checkpoint: %w", err)
		}
		if len(data) > 0 {
			cp, err = wire.DecodeCheckpoint(data)
			if err != nil {
				return fmt.Errorf("engine: %w", err)
			}
			if cp.Site != s.id {
				return fmt.Errorf("engine: checkpoint is for site %s, this site is %s", cp.Site, s.id)
			}
			haveCP = true
		}
	}
	var recErr error
	err := s.call(func() {
		if haveCP {
			if recErr = s.restoreCheckpointState(cp); recErr != nil {
				return
			}
		}
		recErr = s.replayWAL(cp.Seq)
	})
	if err != nil {
		return err
	}
	return recErr
}

// replayWAL replays the log over the restored checkpoint state, inside
// the event loop. Pass 1 collects every recorded outcome (last wins) and
// advances the Lamport clock past every logged VT; pass 2 re-applies the
// records after the checkpoint's marker.
func (s *Site) replayWAL(cpSeq uint64) error {
	// Pass 1: outcomes and clock. FastWrites are commits by construction.
	err := s.wal.Replay(func(rec wal.Record) error {
		if rec.Kind != wal.RecordMessage {
			return nil
		}
		s.clock.Observe(vtime.VT{Time: rec.Time, Site: rec.Origin})
		msg, _, err := wire.DecodeMessage(rec.Payload)
		if err != nil {
			return fmt.Errorf("engine: wal record undecodable: %w", err)
		}
		switch m := msg.(type) {
		case wire.Outcome:
			s.outcomes.set(m.TxnVT, m.Committed)
		case wire.FastWrite:
			s.outcomes.set(m.TxnVT, true)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Pass 2: re-apply records after the checkpoint marker.
	started := cpSeq == 0
	err = s.wal.Replay(func(rec wal.Record) error {
		if rec.Kind == wal.RecordMark {
			seq, ok := wal.MarkSeq(rec)
			if ok && seq == cpSeq {
				started = true
			}
			return nil
		}
		if !started || rec.Kind != wal.RecordMessage {
			return nil
		}
		msg, _, err := wire.DecodeMessage(rec.Payload)
		if err != nil {
			return fmt.Errorf("engine: wal record undecodable: %w", err)
		}
		switch m := msg.(type) {
		case wire.Write:
			committed, decided := s.outcomes.get(m.TxnVT)
			if !decided || !committed {
				// Undecided at the crash (or aborted): do not re-apply.
				// Undecided updates are recovered from peers, not from a
				// log that cannot know their outcome.
				return nil
			}
			// Replay with the decision forced: the primary round-trip
			// already happened in the pre-crash run.
			m.NeedsConfirm = false
			m.Delegate = nil
			m.Checks = nil
			s.handleWrite(m, false)
		case wire.FastWrite:
			s.handleFastWrite(m)
		case wire.RepairLearn:
			// Re-install the repaired graphs at the decided common VT and
			// remember the decision, exactly as the live protocol did.
			s.clock.Observe(m.Value.GraphVT)
			s.installRepairedGraphs(m.Value)
			s.repairDecided[m.Value.FailedSite] = m.Value
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.checkpointSeq = s.wal.LastMarkSeq()
	return nil
}

// ---------------------------------------------------------------------------
// Anti-entropy sync sessions.
// ---------------------------------------------------------------------------

// SyncWith opens a pairwise anti-entropy session with peer (DESIGN.md
// §13): the peer ships every logged update above this site's version
// floors, then (on the reverse leg) this site ships what the peer is
// missing. The engine also starts a session automatically when the
// transport reports a peer recovered.
func (s *Site) SyncWith(peer vtime.SiteID) error {
	return s.call(func() { s.startSync(peer) })
}

// startSync sends the opening floor exchange, inside the loop.
func (s *Site) startSync(peer vtime.SiteID) {
	if s.wal == nil || peer == s.id {
		return
	}
	s.stats.SyncSessions.Inc()
	s.send(peer, wire.SyncRequest{ReqID: s.newReqID(), Floors: s.floorList()})
}

// handleSyncRequest answers a peer's floor exchange with every logged
// record above its floors, and advertises our own floors so the peer
// sends the reverse leg.
func (s *Site) handleSyncRequest(from vtime.SiteID, m wire.SyncRequest) {
	if s.wal == nil {
		return
	}
	s.stats.SyncSessions.Inc()
	s.send(from, wire.SyncUpdates{
		ReqID:     m.ReqID,
		WantReply: true,
		Floors:    s.floorList(),
		Records:   s.buildSyncRecords(from, m.Floors),
	})
}

// handleSyncUpdates applies a sync transfer. Each record re-enters
// handleMessage like a live message — it is re-logged (transitive
// propagation), duplicate-guarded, and applied with its recorded
// outcome. Afterwards the peer's floors are adopted (the transfer just
// proved we hold everything below them), the reverse leg is sent when
// requested, and this site's own optimistic tail is re-submitted through
// the normal §3 confirmation.
func (s *Site) handleSyncUpdates(from vtime.SiteID, m wire.SyncUpdates) {
	if s.wal == nil {
		return
	}
	for _, msg := range m.Records {
		s.stats.SyncRecordsApplied.Inc()
		s.handleMessage(from, msg)
	}
	for _, f := range m.Floors {
		if f.Time > s.syncFloors[f.Site] {
			s.syncFloors[f.Site] = f.Time
		}
	}
	if m.WantReply {
		s.send(from, wire.SyncUpdates{
			ReqID:   m.ReqID,
			Floors:  s.floorList(),
			Records: s.buildSyncRecords(from, m.Floors),
		})
	}
	s.resubmitWaiting()
}

// buildSyncRecords collects the logged updates peer is missing —
// everything above its advertised floors, excluding records the peer
// itself originated — remapped into the peer's object-ID namespace.
// Outcomes ship first, then data records in log order, so the receiver
// applies every update with its decision already recorded.
func (s *Site) buildSyncRecords(peer vtime.SiteID, floors []wire.SyncFloor) []wire.Message {
	floor := map[vtime.SiteID]uint64{}
	for _, f := range floors {
		floor[f.Site] = f.Time
	}
	var outcomes, data []wire.Message
	err := s.wal.Replay(func(rec wal.Record) error {
		if rec.Kind != wal.RecordMessage || rec.Origin == peer || rec.Time <= floor[rec.Origin] {
			return nil
		}
		msg, _, err := wire.DecodeMessage(rec.Payload)
		if err != nil {
			return nil // tolerated: skip, the torn-tail scan already vetted frames
		}
		switch m := msg.(type) {
		case wire.Outcome:
			outcomes = append(outcomes, m)
		case wire.Write:
			if upd := s.remapUpdates(peer, m.Updates); len(upd) > 0 {
				// Checks/NeedsConfirm/Delegate are origin-session state;
				// a relayed update is pure data.
				data = append(data, wire.Write{TxnVT: m.TxnVT, Origin: m.Origin, Updates: upd})
			}
		case wire.FastWrite:
			if upd := s.remapUpdates(peer, m.Updates); len(upd) > 0 {
				data = append(data, wire.FastWrite{TxnVT: m.TxnVT, Origin: m.Origin, Updates: upd})
			}
		}
		return nil
	})
	if err != nil {
		s.log.Warn("sync replay failed", "err", err)
	}
	s.stats.SyncRecordsShipped.Add(uint64(len(outcomes) + len(data)))
	return append(outcomes, data...)
}

// remapUpdates rewrites update targets from this site's replica objects
// to the peer's, via the replication graph. Objects the peer does not
// replicate are dropped.
func (s *Site) remapUpdates(peer vtime.SiteID, updates []wire.Update) []wire.Update {
	var out []wire.Update
	for _, u := range updates {
		root, ok := s.objects[u.Target]
		if !ok {
			continue
		}
		g, _ := root.currentGraph()
		var peerNode ids.ObjectID
		found := false
		for i := range g.NumNodes() {
			if node, site := g.NodeAt(i); site == peer {
				peerNode, found = node, true
				break
			}
		}
		if !found {
			continue
		}
		u.Target = peerNode
		out = append(out, u)
	}
	return out
}

// resubmitWaiting re-sends the stored propagation messages of this
// site's own still-waiting transactions — the optimistic tail whose
// confirmations were lost in the partition. Receivers deduplicate the
// updates; primaries whose decision already exists answer from the
// recorded outcome (see handleWrite).
func (s *Site) resubmitWaiting() {
	if s.wal == nil {
		return
	}
	for _, vt := range sortedVTs(s.txns) {
		st := s.txns[vt]
		if st.status != txnWaiting || st.origin != s.id || len(st.sentMsgs) == 0 {
			continue
		}
		for _, site := range sortedSites(st.sentMsgs) {
			if s.failed[site] {
				continue
			}
			for _, msg := range st.sentMsgs[site] {
				s.send(site, msg)
			}
		}
		s.stats.SyncResubmits.Inc()
	}
}

// ---------------------------------------------------------------------------
// Offline mode: disconnected is not failed.
// ---------------------------------------------------------------------------

// SetPeerDisconnected informs the suspicion policy that peer is
// disconnected, not failed (DESIGN.md §13): while marked, a transport
// failure event for the peer parks instead of triggering §3.4 failover,
// until either the transport reports the peer recovered or the
// OfflineGrace deadline expires. Unmarking with offline=false only
// clears the mark — an already parked failover still resolves through
// recovery or its grace deadline.
func (s *Site) SetPeerDisconnected(peer vtime.SiteID, offline bool) error {
	return s.call(func() {
		if offline {
			s.disconnected[peer] = true
			return
		}
		delete(s.disconnected, peer)
	})
}

// parkFailure defers the §3.4 failover for a disconnected peer, arming
// the OfflineGrace deadline when configured.
func (s *Site) parkFailure(f vtime.SiteID) {
	if _, ok := s.parkedFailures[f]; ok {
		return
	}
	s.stats.FailoversParked.Inc()
	s.log.Debug("failover parked", "peer", f.String())
	var cancel func()
	if g := s.opts.OfflineGrace; g > 0 {
		cancel = s.opts.Scheduler.AfterFunc(g, func() {
			s.do(func() { s.expireParkedFailure(f) })
		})
	}
	s.parkedFailures[f] = cancel
}

// expireParkedFailure runs the deferred failover after the grace period:
// the peer stayed away too long, so it is treated as failed after all.
func (s *Site) expireParkedFailure(f vtime.SiteID) {
	if _, ok := s.parkedFailures[f]; !ok {
		return
	}
	delete(s.parkedFailures, f)
	s.log.Debug("offline grace expired, running failover", "peer", f.String())
	s.stats.FailoversRun.Inc()
	s.handleSiteFailure(f)
}

// unparkFailure discards a parked failover (the peer recovered in time).
func (s *Site) unparkFailure(f vtime.SiteID) {
	cancel, ok := s.parkedFailures[f]
	if !ok {
		return
	}
	delete(s.parkedFailures, f)
	if cancel != nil {
		cancel()
	}
}
