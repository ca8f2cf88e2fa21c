package engine

import (
	"fmt"
	"io"

	"decaf/internal/history"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Persistence store (paper §5.3: "We are also incorporating a persistence
// store and recovery ... into the algorithms of DECAF").
//
// Checkpoint serializes a site's committed state: every top-level model
// object with its latest committed value (a composite as its committed
// state image, tombstones and VT element tags included, so cross-site
// paths and inserts anchored on removed elements stay valid), its
// replication graph, and the site's clock and sequence counters. Restore
// loads a checkpoint into a fresh site with the same site ID.
//
// Format: the internal/wire checkpoint codec (deterministic bytes behind
// a magic + version prefix; anything else is rejected with an error).
//
// Semantics: a checkpoint captures committed state only — in-flight
// optimistic state is deliberately excluded (it would be undone on abort
// anyway). Restoring a single member of a live collaboration is the
// "rejoin as a new member" path of §3.4; restoring ALL members from
// mutually consistent checkpoints resumes the collaboration in place.
// On a WAL-attached site, Checkpoint also appends a covering RecordMark
// so Recover knows where the checkpoint's log coverage ends (DESIGN.md
// §13).

// Checkpoint writes the site's committed state to w. On a WAL-attached
// site it also appends the covering marker to the log, inside the same
// event-loop call that captures the state, so the marker's position
// exactly bounds the checkpoint's coverage.
func (s *Site) Checkpoint(w io.Writer) error {
	var cp wire.Checkpoint
	var markErr error
	err := s.call(func() {
		cp = s.buildCheckpoint()
		if s.wal != nil {
			s.checkpointSeq++
			cp.Seq = s.checkpointSeq
			markErr = s.wal.Mark(cp.Seq)
			if markErr == nil && len(s.disconnected) == 0 && len(s.parkedFailures) == 0 {
				// Segments only become droppable once a newer marker
				// covers them, so a checkpoint is the one moment
				// truncation can make progress. Everything below the
				// GC floor is globally decided; TruncateBelow itself
				// refuses to cross the newest marker. While any peer is
				// known to be offline the whole backlog stays shippable,
				// so truncation waits for the reconnect.
				if terr := s.wal.TruncateBelow(s.combinedGCFloor().Time); terr != nil {
					s.log.Warn("wal truncate failed", "err", terr)
				}
			}
		}
	})
	if err != nil {
		return err
	}
	if markErr != nil {
		return fmt.Errorf("engine: checkpoint wal marker: %w", markErr)
	}
	b, err := wire.EncodeCheckpoint(cp)
	if err != nil {
		return fmt.Errorf("engine: encode checkpoint: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("engine: write checkpoint: %w", err)
	}
	return nil
}

// buildCheckpoint captures the committed state, inside the loop.
func (s *Site) buildCheckpoint() wire.Checkpoint {
	cp := wire.Checkpoint{
		Site:    s.id,
		NextSeq: s.nextSeq,
		Clock:   s.clock.Now(),
		Floors:  s.floorList(),
	}
	// ID-sorted so the checkpoint bytes are a pure function of the
	// committed state: two converged replicas (or the same site
	// checkpointed twice) must encode identically.
	for _, id := range sortedObjectIDs(s.objects) {
		o := s.objects[id]
		if o.parent != nil {
			continue // children ride inside their composite root
		}
		cp.Objects = append(cp.Objects, s.checkpointObject(o))
	}
	return cp
}

// checkpointObject captures one top-level object.
func (s *Site) checkpointObject(o *object) wire.CheckpointObject {
	oc := wire.CheckpointObject{ID: o.id, Kind: o.kind, Desc: o.desc}
	if o.isComposite() {
		oc.Children = captureImage(o, true)
	} else if v, ok := o.hist.CurrentCommitted(); ok {
		oc.Value, oc.ValueVT = v.Value, v.VT
	}
	if o.graph != nil {
		oc.Graph = o.graph.ToWire()
		oc.GraphVT = o.graphVT
	}
	return oc
}

// Restore loads a checkpoint into this (fresh, same-ID) site.
func (s *Site) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("engine: read checkpoint: %w", err)
	}
	cp, err := wire.DecodeCheckpoint(data)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if cp.Site != s.id {
		return fmt.Errorf("engine: checkpoint is for site %s, this site is %s", cp.Site, s.id)
	}
	var restoreErr error
	err = s.call(func() { restoreErr = s.restoreCheckpointState(cp) })
	if err != nil {
		return err
	}
	return restoreErr
}

// restoreCheckpointState loads cp into the site, inside the loop. Shared
// by Restore and Recover.
func (s *Site) restoreCheckpointState(cp wire.Checkpoint) error {
	if len(s.objects) != 0 {
		return fmt.Errorf("engine: restore requires a fresh site (has %d objects)", len(s.objects))
	}
	s.clock.Observe(cp.Clock)
	if cp.NextSeq > s.nextSeq {
		s.nextSeq = cp.NextSeq
	}
	for _, f := range cp.Floors {
		if f.Time > s.syncFloors[f.Site] {
			s.syncFloors[f.Site] = f.Time
		}
	}
	for _, oc := range cp.Objects {
		s.restoreObject(oc)
	}
	return nil
}

// restoreObject reconstructs one top-level object with its original ID.
func (s *Site) restoreObject(oc wire.CheckpointObject) {
	o := &object{
		id:   oc.ID,
		kind: oc.Kind,
		desc: oc.Desc,
		site: s,
	}
	// The committed value is re-inserted at its original VT so future
	// reads and checks order correctly against it; a value still at the
	// zero VT (never overwritten) becomes the base version itself.
	base := defaultValue(oc.Kind)
	if oc.ValueVT.IsZero() && oc.Value != nil {
		base = oc.Value
	}
	if err := o.hist.Insert(vtime.Zero, base, history.Committed); err != nil {
		panic(fmt.Sprintf("engine: restore base insert: %v", err))
	}
	if !oc.ValueVT.IsZero() {
		_ = o.hist.Insert(oc.ValueVT, oc.Value, history.Committed)
	}
	if len(oc.Graph.Nodes) > 0 {
		o.graph = repgraph.FromWire(oc.Graph)
		o.graphVT = oc.GraphVT
	} else {
		o.graph = repgraph.NewGraph(o.id, s.id)
	}
	if err := o.graphHist.Insert(o.graphVT, o.graph, history.Committed); err != nil {
		panic(fmt.Sprintf("engine: restore graph insert: %v", err))
	}
	s.objects[o.id] = o
	s.installImage(nil, o, oc.Children, history.Committed)
}

// Objects returns the refs of all top-level objects, for post-restore
// discovery (sorted by ID).
func (s *Site) Objects() ([]ObjRef, error) {
	var out []ObjRef
	err := s.call(func() {
		// ID-sorted iteration gives the deterministic order directly.
		for _, id := range sortedObjectIDs(s.objects) {
			if o := s.objects[id]; o.parent == nil {
				out = append(out, ObjRef{o: o})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, err
}
