package engine

import (
	"errors"
	"fmt"

	"decaf/internal/ids"
	"decaf/internal/vtime"
)

// ObjRef is an opaque handle to a model object hosted at a site. Refs are
// obtained from CreateObject, composite accessors, and join results, and
// passed to Tx accessors and AttachView.
type ObjRef struct {
	o *object
}

// ID returns the object's globally unique identifier.
func (r ObjRef) ID() ids.ObjectID {
	if r.o == nil {
		return ids.ObjectID{}
	}
	return r.o.id
}

// Valid reports whether the ref points at an object.
func (r ObjRef) Valid() bool { return r.o != nil }

// Kind returns the model-object kind.
func (r ObjRef) Kind() Kind {
	if r.o == nil {
		return 0
	}
	return r.o.kind
}

// Errors returned by the object API.
var (
	ErrWrongKind     = errors.New("engine: operation on wrong model-object kind")
	ErrInvalidRef    = errors.New("engine: invalid object reference")
	ErrNoSuchElement = errors.New("engine: no such element")
)

// CreateObject creates a standalone model object at this site with the
// given kind, description, and initial value (nil selects the kind's zero
// value). Composites ignore the initial value; a scalar's must fit its
// kind (ErrWrongKind otherwise), which keeps every value that can enter a
// history inside the set the wire codec encodes.
func (s *Site) CreateObject(kind Kind, desc string, initial any) (ObjRef, error) {
	if initial == nil || kind == KindList || kind == KindTuple {
		initial = defaultValue(kind)
	} else if err := checkValueKind(kind, initial); err != nil {
		return ObjRef{}, err
	}
	var ref ObjRef
	err := s.call(func() {
		ref = ObjRef{o: s.newObject(kind, desc, initial)}
	})
	return ref, err
}

// Object resolves an ObjectID to a local ref.
func (s *Site) Object(id ids.ObjectID) (ObjRef, bool) {
	var ref ObjRef
	var ok bool
	if err := s.call(func() {
		o, found := s.objects[id]
		ref, ok = ObjRef{o: o}, found
	}); err != nil {
		return ObjRef{}, false
	}
	return ref, ok
}

// ReadCurrent returns the object's current (possibly uncommitted) value,
// outside any transaction. Composites materialize to []any /
// map[string]any.
func (s *Site) ReadCurrent(ref ObjRef) (any, error) {
	if ref.o == nil {
		return nil, ErrInvalidRef
	}
	var v any
	err := s.call(func() {
		v = ref.o.readValue(ref.o.latestVT(), false)
	})
	return v, err
}

// ReadCommitted returns the object's latest committed value.
func (s *Site) ReadCommitted(ref ObjRef) (any, error) {
	if ref.o == nil {
		return nil, ErrInvalidRef
	}
	var v any
	err := s.call(func() {
		v = ref.o.readValue(ref.o.latestCommittedVT(), true)
	})
	return v, err
}

// ReplicaSites returns the sites hosting replicas of ref (including this
// one), per its current replication graph.
func (s *Site) ReplicaSites(ref ObjRef) ([]vtime.SiteID, error) {
	if ref.o == nil {
		return nil, ErrInvalidRef
	}
	var out []vtime.SiteID
	err := s.call(func() {
		g, _ := ref.o.currentGraph()
		if g != nil {
			out = g.Sites()
		}
	})
	return out, err
}

// PrimarySite returns the site of ref's primary copy.
func (s *Site) PrimarySite(ref ObjRef) (vtime.SiteID, error) {
	if ref.o == nil {
		return 0, ErrInvalidRef
	}
	var out vtime.SiteID
	err := s.call(func() { out = ref.o.primarySite() })
	return out, err
}

// Read returns ref's current value inside a transaction, recording the
// read for concurrency control.
func (tx *Tx) Read(ref ObjRef) (any, error) {
	if ref.o == nil {
		return nil, ErrInvalidRef
	}
	if ref.o.isComposite() {
		tx.recordRead(ref.o)
		return ref.o.readValue(ref.o.latestVT(), false), nil
	}
	return tx.ReadScalar(ref.o), nil
}

// Write replaces a scalar (or association) object's value inside a
// transaction.
func (tx *Tx) Write(ref ObjRef, value any) error {
	if ref.o == nil {
		return ErrInvalidRef
	}
	if ref.o.isComposite() {
		return fmt.Errorf("%w: cannot Write composite %s", ErrWrongKind, ref.o.kind)
	}
	if err := checkValueKind(ref.o.kind, value); err != nil {
		return err
	}
	tx.WriteScalar(ref.o, value)
	return nil
}

// Add increments a numeric scalar object by delta (int64 for KindInt,
// float64 for KindFloat) inside a transaction. Adds commute: a
// transaction built only from adds and other commutative ops commits on
// the fast path, without a primary round-trip.
func (tx *Tx) Add(ref ObjRef, delta any) error {
	if ref.o == nil {
		return ErrInvalidRef
	}
	switch n := delta.(type) {
	case int:
		delta = int64(n)
	case int32:
		delta = int64(n)
	}
	switch ref.o.kind {
	case KindInt:
		if _, ok := delta.(int64); !ok {
			return fmt.Errorf("%w: delta %T does not fit %s", ErrWrongKind, delta, ref.o.kind)
		}
	case KindFloat:
		if _, ok := delta.(float64); !ok {
			return fmt.Errorf("%w: delta %T does not fit %s", ErrWrongKind, delta, ref.o.kind)
		}
	default:
		return fmt.Errorf("%w: cannot Add to %s", ErrWrongKind, ref.o.kind)
	}
	tx.AddScalar(ref.o, delta)
	return nil
}

// checkValueKind validates a scalar value against the object kind.
func checkValueKind(kind Kind, v any) error {
	ok := false
	switch kind {
	case KindInt:
		_, ok = v.(int64)
	case KindFloat:
		_, ok = v.(float64)
	case KindString:
		_, ok = v.(string)
	case KindBool:
		_, ok = v.(bool)
	case KindAssociation:
		return fmt.Errorf("%w: association values change via join/leave", ErrWrongKind)
	default:
		return fmt.Errorf("%w: %s holds no scalar", ErrWrongKind, kind)
	}
	if !ok {
		return fmt.Errorf("%w: value %T does not fit %s", ErrWrongKind, v, kind)
	}
	return nil
}
