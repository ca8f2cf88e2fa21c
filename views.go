package decaf

import (
	"decaf/internal/engine"
	"decaf/internal/ids"
)

// View is a user-defined observer of model objects (paper §2.5). When an
// attached model object changes, the view's Update method is called with
// a consistent state snapshot. Update may render, print, or initiate new
// transactions; it runs on the site's notifier goroutine, never
// concurrently with itself.
type View interface {
	Update(s *Snapshot)
}

// Committer is optionally implemented by optimistic views to receive the
// paper's commit() notification: the most recent update notification is
// known to have shown committed state (§4.1). Implementing it has a
// price: every optimistic snapshot then costs one CONFIRM-READ round trip
// to each remote site holding the primary copy of an object the snapshot
// read below its virtual time. A view that does not implement it asks no
// primary anything.
type Committer interface {
	Commit()
}

// ViewMode selects optimistic or pessimistic notification (paper §2.5.1).
type ViewMode int

// View modes.
const (
	// Optimistic views are notified as soon as a transaction executes
	// locally — possibly of state that is later rolled back — and
	// receive Commit when the snapshot is known committed. They trade
	// accuracy and the risk of wasted work for responsiveness.
	Optimistic ViewMode = ViewMode(engine.Optimistic)
	// Pessimistic views never see uncommitted or inconsistent values and
	// see all committed values in monotonic order of applied updates.
	Pessimistic ViewMode = ViewMode(engine.Pessimistic)
)

// Snapshot is an immutable consistent snapshot of the attached model
// objects at a single virtual time, delivered to View.Update. Snapshots
// behave as if read instantaneously with respect to all transactions
// (paper §2.5).
type Snapshot struct {
	data    engine.SnapshotData
	changed map[ids.ObjectID]struct{}
}

// newSnapshot builds the changed-ID set once so Changed is O(1) per
// query; built eagerly so concurrent Changed calls need no lock.
func newSnapshot(d engine.SnapshotData) *Snapshot {
	s := &Snapshot{data: d}
	if len(d.Changed) > 0 {
		s.changed = make(map[ids.ObjectID]struct{}, len(d.Changed))
		for _, id := range d.Changed {
			s.changed[id] = struct{}{}
		}
	}
	return s
}

// VT returns the snapshot's virtual time.
func (s *Snapshot) VT() VT { return s.data.TS }

// IsCommitted reports whether the snapshot is known to contain only
// committed state (always true for pessimistic views).
func (s *Snapshot) IsCommitted() bool { return s.data.Committed }

// Changed reports whether obj's value changed since the view's previous
// notification (paper §2.5: notifications carry the list of changed
// objects so views can recompute incrementally).
func (s *Snapshot) Changed(obj Object) bool {
	_, ok := s.changed[obj.Ref().ID()]
	return ok
}

// value returns the raw snapshot value for an object.
func (s *Snapshot) value(id ids.ObjectID) any {
	return s.data.Values[id]
}

// Int reads an attached Int's value at the snapshot time.
func (s *Snapshot) Int(o *Int) int64 {
	n, _ := s.value(o.ID()).(int64)
	return n
}

// Float reads an attached Float's value at the snapshot time.
func (s *Snapshot) Float(o *Float) float64 {
	n, _ := s.value(o.ID()).(float64)
	return n
}

// String reads an attached String's value at the snapshot time.
func (s *Snapshot) String(o *String) string {
	n, _ := s.value(o.ID()).(string)
	return n
}

// Bool reads an attached Bool's value at the snapshot time.
func (s *Snapshot) Bool(o *Bool) bool {
	n, _ := s.value(o.ID()).(bool)
	return n
}

// List reads an attached List's materialized structure at the snapshot
// time ([]any of scalars, []any, map[string]any).
func (s *Snapshot) List(o *List) []any {
	n, _ := s.value(o.ID()).([]any)
	return n
}

// Tuple reads an attached Tuple's materialized structure.
func (s *Snapshot) Tuple(o *Tuple) map[string]any {
	n, _ := s.value(o.ID()).(map[string]any)
	return n
}

// Relationships reads an attached Association's value.
func (s *Snapshot) Relationships(a *Association) []Relationship {
	rels, _ := s.value(a.ID()).([]Relationship)
	return rels
}

// Attachment identifies an attached view; Detach stops notifications.
type Attachment struct {
	inner *engine.ViewHandle
}

// Detach removes the view from its model objects.
func (a *Attachment) Detach() {
	if a != nil {
		a.inner.Detach()
	}
}

// Attach attaches a view to one or more model objects at this site. A
// view attached to a composite is also notified of changes to the
// composite's children (§2.5). The view immediately receives an initial
// Update with the current state.
func (s *Site) Attach(v View, mode ViewMode, objs ...Object) (*Attachment, error) {
	refs := make([]engine.ObjRef, 0, len(objs))
	for _, o := range objs {
		refs = append(refs, o.Ref())
	}
	fns := engine.ViewFuncs{
		Update: func(d engine.SnapshotData) { v.Update(newSnapshot(d)) },
	}
	if c, ok := v.(Committer); ok {
		fns.Commit = c.Commit
	}
	h, err := s.eng.AttachView(refs, engine.ViewMode(mode), fns)
	if err != nil {
		return nil, err
	}
	return &Attachment{inner: h}, nil
}

// ViewFunc adapts a function to the View interface.
type ViewFunc func(s *Snapshot)

// Update implements View.
func (f ViewFunc) Update(s *Snapshot) { f(s) }
