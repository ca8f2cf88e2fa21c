package engine

import (
	"fmt"

	"decaf/internal/history"
	"decaf/internal/wire"
)

// Composite model-object operations on the transaction context
// (paper §2.1: lists are linearly indexed sequences of children; tuples
// are collections of children indexed by a key; §3.2: updates inside
// composites propagate indirectly through the root's replication graph).

// ensureCompositeWrite returns (creating if needed) the write record that
// accumulates structural ops on comp within this transaction.
func (tx *Tx) ensureCompositeWrite(comp *object) *writeRec {
	if w := tx.findWrite(comp); w != nil {
		return w
	}
	readVT := tx.st.vt // blind structural write
	if r := tx.findRead(comp); r != nil {
		readVT = r.readVT
		r.absorbed = true
	}
	root := comp.replicationRoot()
	w := tx.st.addWrite(writeRec{obj: comp, readVT: readVT, graphVT: root.graphVT})
	tx.recordPathDeps(comp)
	return w
}

// applyLocalOp applies a structural op at the originating site through the
// same machinery remote sites use, keeping behaviour identical everywhere.
func (tx *Tx) applyLocalOp(comp *object, op wire.Op) {
	tx.s.applyOp(tx.st, comp, nil, op, history.Pending)
}

// countInsertsBy returns how many list inserts this transaction already
// performed on lst (the element-tag ordinal).
func (tx *Tx) countInsertsBy(w *writeRec) uint32 {
	var n uint32
	for _, op := range w.ops {
		switch op.(type) {
		case wire.OpListInsert, wire.OpListInsertAfter:
			n++
		}
	}
	return n
}

// ListLen returns the number of live elements, recording a structural
// read.
func (tx *Tx) ListLen(ref ObjRef) (int, error) {
	l := ref.o
	if l == nil {
		return 0, ErrInvalidRef
	}
	if l.kind != KindList {
		return 0, fmt.Errorf("%w: ListLen on %s", ErrWrongKind, l.kind)
	}
	tx.recordRead(l)
	return len(l.visibleChildren(l.latestVT(), false)), nil
}

// ListGet returns the child at index idx (over live elements), recording a
// structural read.
func (tx *Tx) ListGet(ref ObjRef, idx int) (ObjRef, error) {
	l := ref.o
	if l == nil {
		return ObjRef{}, ErrInvalidRef
	}
	if l.kind != KindList {
		return ObjRef{}, fmt.Errorf("%w: ListGet on %s", ErrWrongKind, l.kind)
	}
	tx.recordRead(l)
	vis := l.visibleChildren(l.latestVT(), false)
	if idx < 0 || idx >= len(vis) {
		return ObjRef{}, fmt.Errorf("%w: index %d of %d", ErrNoSuchElement, idx, len(vis))
	}
	return ObjRef{o: vis[idx]}, nil
}

// ListInsert embeds a new child at index idx (len(list) appends) and
// returns its ref. The element receives a VT tag making its path robust
// against concurrent reordering (paper §3.2.1).
func (tx *Tx) ListInsert(ref ObjRef, idx int, decl wire.ChildDecl) (ObjRef, error) {
	l := ref.o
	if l == nil {
		return ObjRef{}, ErrInvalidRef
	}
	if l.kind != KindList {
		return ObjRef{}, fmt.Errorf("%w: ListInsert on %s", ErrWrongKind, l.kind)
	}
	if err := validDecl(decl); err != nil {
		return ObjRef{}, err
	}
	w := tx.ensureCompositeWrite(l)
	vis := l.visibleChildren(l.latestVT(), false)
	if idx < 0 || idx > len(vis) {
		return ObjRef{}, fmt.Errorf("%w: insert index %d of %d", ErrNoSuchElement, idx, len(vis))
	}
	var after wire.ElemTag
	if idx > 0 {
		after = vis[idx-1].parentLink.Tag
		// The insert is causally ordered after the element it follows.
		// Remote replicas block the new element until the earlier one
		// arrives.
		tx.dependOnInsert(vis[idx-1])
	}
	op := wire.OpListInsert{
		Tag:   wire.ElemTag{VT: tx.st.vt, N: tx.countInsertsBy(w)},
		Child: decl,
		After: after,
	}
	w.ops = append(w.ops, op)
	tx.applyLocalOp(l, op)
	return materialized(l, op.Tag)
}

// materialized returns the element a just-applied local insert placed
// in lst under tag.
func materialized(lst *object, tag wire.ElemTag) (ObjRef, error) {
	_, c := lst.findChild(wire.PathElem{Tag: tag})
	if c == nil {
		return ObjRef{}, fmt.Errorf("engine: insert did not materialize element %s", tag)
	}
	return ObjRef{o: c}, nil
}

// ListTagAt returns the stable tag of the element at index idx, for use
// as the anchor of ListInsertAfter. It records a structural read.
func (tx *Tx) ListTagAt(ref ObjRef, idx int) (wire.ElemTag, error) {
	l := ref.o
	if l == nil {
		return wire.ElemTag{}, ErrInvalidRef
	}
	if l.kind != KindList {
		return wire.ElemTag{}, fmt.Errorf("%w: ListTagAt on %s", ErrWrongKind, l.kind)
	}
	tx.recordRead(l)
	vis := l.visibleChildren(l.latestVT(), false)
	if idx < 0 || idx >= len(vis) {
		return wire.ElemTag{}, fmt.Errorf("%w: index %d of %d", ErrNoSuchElement, idx, len(vis))
	}
	return vis[idx].parentLink.Tag, nil
}

// ListInsertAfter embeds a new child directly after the element tagged
// `after` (the zero tag anchors at the head) and returns its ref. The
// position is stable — it names an element, not an index — so concurrent
// inserts at different sites interleave deterministically (RGA order:
// ties resolve by tag) instead of racing over shifting indices. This is
// the sanctioned op for concurrent editing, and the only list insert the
// commutative fast path accepts: unlike ListInsert it records no read and
// needs no index agreement.
func (tx *Tx) ListInsertAfter(ref ObjRef, after wire.ElemTag, decl wire.ChildDecl) (ObjRef, error) {
	l := ref.o
	if l == nil {
		return ObjRef{}, ErrInvalidRef
	}
	if l.kind != KindList {
		return ObjRef{}, fmt.Errorf("%w: ListInsertAfter on %s", ErrWrongKind, l.kind)
	}
	if err := validDecl(decl); err != nil {
		return ObjRef{}, err
	}
	if after != (wire.ElemTag{}) {
		_, anchor := l.findChild(wire.PathElem{Tag: after})
		if anchor == nil {
			return ObjRef{}, fmt.Errorf("%w: no element tagged %s", ErrNoSuchElement, after)
		}
		// Causal dependency on a still-pending anchor routes this
		// transaction through the guessed path; an anchor from committed
		// state keeps it fast-path eligible.
		tx.dependOnInsert(anchor)
	}
	w := tx.ensureCompositeWrite(l)
	op := wire.OpListInsertAfter{
		Tag:   wire.ElemTag{VT: tx.st.vt, N: tx.countInsertsBy(w)},
		Child: decl,
		After: after,
	}
	w.ops = append(w.ops, op)
	tx.applyLocalOp(l, op)
	return materialized(l, op.Tag)
}

// ListAppend embeds a new child at the end of the list.
func (tx *Tx) ListAppend(ref ObjRef, decl wire.ChildDecl) (ObjRef, error) {
	l := ref.o
	if l == nil {
		return ObjRef{}, ErrInvalidRef
	}
	if l.kind != KindList {
		return ObjRef{}, fmt.Errorf("%w: ListAppend on %s", ErrWrongKind, l.kind)
	}
	tx.recordRead(l)
	return tx.ListInsert(ref, len(l.visibleChildren(l.latestVT(), false)), decl)
}

// ListRemove removes the element at index idx.
func (tx *Tx) ListRemove(ref ObjRef, idx int) error {
	l := ref.o
	if l == nil {
		return ErrInvalidRef
	}
	if l.kind != KindList {
		return fmt.Errorf("%w: ListRemove on %s", ErrWrongKind, l.kind)
	}
	tx.recordRead(l)
	vis := l.visibleChildren(l.latestVT(), false)
	if idx < 0 || idx >= len(vis) {
		return fmt.Errorf("%w: remove index %d of %d", ErrNoSuchElement, idx, len(vis))
	}
	tx.dependOnInsert(vis[idx])
	w := tx.ensureCompositeWrite(l)
	op := wire.OpListRemove{Tag: vis[idx].parentLink.Tag}
	w.ops = append(w.ops, op)
	tx.applyLocalOp(l, op)
	return nil
}

// TupleGet returns the child under key, if present.
func (tx *Tx) TupleGet(ref ObjRef, key string) (ObjRef, bool, error) {
	t := ref.o
	if t == nil {
		return ObjRef{}, false, ErrInvalidRef
	}
	if t.kind != KindTuple {
		return ObjRef{}, false, fmt.Errorf("%w: TupleGet on %s", ErrWrongKind, t.kind)
	}
	tx.recordRead(t)
	c := t.liveChild(key)
	if c == nil {
		return ObjRef{}, false, nil
	}
	return ObjRef{o: c}, true, nil
}

// TupleKeys returns the live keys, recording a structural read.
func (tx *Tx) TupleKeys(ref ObjRef) ([]string, error) {
	t := ref.o
	if t == nil {
		return nil, ErrInvalidRef
	}
	if t.kind != KindTuple {
		return nil, fmt.Errorf("%w: TupleKeys on %s", ErrWrongKind, t.kind)
	}
	tx.recordRead(t)
	vis := t.visibleChildren(t.latestVT(), false)
	out := make([]string, 0, len(vis))
	for _, c := range vis {
		out = append(out, c.parentLink.Key)
	}
	return out, nil
}

// TupleSet embeds (or replaces) the child under key and returns its ref.
func (tx *Tx) TupleSet(ref ObjRef, key string, decl wire.ChildDecl) (ObjRef, error) {
	t := ref.o
	if t == nil {
		return ObjRef{}, ErrInvalidRef
	}
	if t.kind != KindTuple {
		return ObjRef{}, fmt.Errorf("%w: TupleSet on %s", ErrWrongKind, t.kind)
	}
	if err := validDecl(decl); err != nil {
		return ObjRef{}, err
	}
	w := tx.ensureCompositeWrite(t)
	op := wire.OpTupleSet{Key: key, Child: decl}
	w.ops = append(w.ops, op)
	tx.applyLocalOp(t, op)
	c := t.liveChild(key)
	if c == nil {
		return ObjRef{}, fmt.Errorf("engine: tuple set did not materialize key %q", key)
	}
	return ObjRef{o: c}, nil
}

// TupleRemove removes the child under key.
func (tx *Tx) TupleRemove(ref ObjRef, key string) error {
	t := ref.o
	if t == nil {
		return ErrInvalidRef
	}
	if t.kind != KindTuple {
		return fmt.Errorf("%w: TupleRemove on %s", ErrWrongKind, t.kind)
	}
	tx.recordRead(t)
	c := t.liveChild(key)
	if c == nil {
		return fmt.Errorf("%w: key %q", ErrNoSuchElement, key)
	}
	tx.dependOnInsert(c)
	w := tx.ensureCompositeWrite(t)
	// Of pins the exact slot being removed so a concurrent re-set of
	// the key at another site is not clobbered (add-wins).
	op := wire.OpTupleRemove{Key: key, Of: c.parentLink.Tag.VT}
	w.ops = append(w.ops, op)
	tx.applyLocalOp(t, op)
	return nil
}

// dependOnInsert makes the transaction an RC guess on the one that
// embedded child, while that insert is pending (paper §3.2.1): an op
// naming the child must not commit unless the child does. A remove
// without the guess outlives an aborted insert, and the primary, which
// no longer has the child, parks the remove for good, so its origin
// never hears a verdict.
func (tx *Tx) dependOnInsert(child *object) {
	if v, ok := child.parent.hist.Get(child.insertVT); ok && v.Status == history.Pending && v.VT != tx.st.vt {
		tx.st.addRCDep(v.VT)
	}
}

// validDecl vets a child declaration.
func validDecl(decl wire.ChildDecl) error {
	switch decl.Kind {
	case KindInt, KindFloat, KindString, KindBool, KindList, KindTuple:
	default:
		return fmt.Errorf("%w: cannot embed %s", ErrWrongKind, decl.Kind)
	}
	if decl.Value != nil {
		return checkValueKind(decl.Kind, decl.Value)
	}
	return nil
}
