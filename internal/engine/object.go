// Package engine implements the DECAF site runtime: model objects with
// versioned histories, the optimistic concurrency-control transaction
// engine (paper §3), the view-notification engine (paper §4), dynamic
// collaboration establishment (§3.3), and failure handling (§3.4).
//
// Each Site runs a single event-loop goroutine that owns all site state;
// controllers submit transactions into the loop and user callbacks (views,
// abort handlers) run on a separate notifier goroutine with immutable
// snapshot data, so user code never races with the engine.
package engine

import (
	"fmt"
	"slices"

	"decaf/internal/history"
	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Kind aliases the wire-level model-object kind enumeration.
type Kind = wire.ChildKind

// Re-exported model object kinds.
const (
	KindInt         = wire.KindInt
	KindFloat       = wire.KindFloat
	KindString      = wire.KindString
	KindBool        = wire.KindBool
	KindList        = wire.KindList
	KindTuple       = wire.KindTuple
	KindAssociation = wire.KindAssociation
)

// pendingIndirect is an indirect-propagation update that arrived before
// the structural operation creating part of its path (paper §3.2.1: "the
// propagation will block until the earlier update is received").
type pendingIndirect struct {
	txnVT  vtime.VT
	origin vtime.SiteID
	upd    wire.Update
}

// object is one model object replica at one site. All access is confined
// to the owning site's event loop.
type object struct {
	id   ids.ObjectID
	kind Kind
	desc string
	site *Site

	// hist is the value history. For scalar objects the versions carry
	// the value; for composites they carry the structural op that
	// changed the composite (embed/remove), giving composites their own
	// read/write times; for associations they carry []wire.Relationship.
	hist history.History
	// res is the write-free reservation table, meaningful when this
	// site hosts the object's primary copy.
	res history.Reservations

	// graph is the current replication graph; graphVT the VT at which
	// it was last changed; graphHist the replication-graph history.
	// Indirect children have a nil graph and inherit the root's.
	graph     *repgraph.Graph
	graphVT   vtime.VT
	graphHist history.History
	graphRes  history.Reservations

	// proxies are the view proxies attached locally to this object.
	proxies []*viewProxy

	// Composite linkage. An embedded child is one slot of its parent,
	// whichever kind the parent is: parentLink names it (a list
	// element's tag, or a tuple key with its pinned insert VT),
	// insertVT is the transaction that embedded it, and removals are
	// the transactions that removed it (several sites may remove the
	// same child concurrently; aborted removals are withdrawn by undo).
	// Removed children stay as tombstones so that concurrent operations
	// converge to the same structure at every replica; a state image
	// carries them too (installImage).
	parent     *object
	parentLink wire.PathElem
	insertVT   vtime.VT
	removals   []vtime.VT
	// children are a composite's slots: a list's in RGA position
	// order, a tuple's in arrival order. Concurrent sets of one tuple
	// key coexist as separate slots; the greatest insert VT is live.
	children []*object
	pending  []pendingIndirect
}

// An embedded object with a non-nil graph uses DIRECT propagation (paper
// §3.2.2): it is its own replication root. See promote.go.

// newObject creates a local object with a fresh ID and a single-node
// replication graph.
func (s *Site) newObject(kind Kind, desc string, initial any) *object {
	s.nextSeq++
	o := &object{
		id:   ids.ObjectID{Site: s.id, Seq: s.nextSeq},
		kind: kind,
		desc: desc,
		site: s,
	}
	o.graph = repgraph.NewGraph(o.id, s.id)
	// Initial value at the zero VT, committed: objects are born with a
	// consistent value visible to snapshots at any time.
	if err := o.hist.Insert(vtime.Zero, initial, history.Committed); err != nil {
		panic(fmt.Sprintf("engine: fresh history insert: %v", err))
	}
	if err := o.graphHist.Insert(vtime.Zero, o.graph, history.Committed); err != nil {
		panic(fmt.Sprintf("engine: fresh graph insert: %v", err))
	}
	s.objects[o.id] = o
	return o
}

// newChildObject creates the object that fills parent's slot link,
// embedded by the transaction at insertVT (indirect propagation by
// default: nil own graph until it collaborates directly).
func (s *Site) newChildObject(parent *object, link wire.PathElem, insertVT vtime.VT, decl wire.ChildDecl) *object {
	s.nextSeq++
	o := &object{
		id:         ids.ObjectID{Site: s.id, Seq: s.nextSeq},
		kind:       decl.Kind,
		desc:       fmt.Sprintf("%s%s", parent.desc, link),
		site:       s,
		parent:     parent,
		parentLink: link,
		insertVT:   insertVT,
	}
	initial := decl.Value
	if initial == nil {
		initial = defaultValue(decl.Kind)
	}
	if err := o.hist.Insert(vtime.Zero, initial, history.Committed); err != nil {
		panic(fmt.Sprintf("engine: fresh child history insert: %v", err))
	}
	s.objects[o.id] = o
	return o
}

// defaultValue returns the initial value for a model-object kind.
func defaultValue(kind Kind) any {
	switch kind {
	case KindInt:
		return int64(0)
	case KindFloat:
		return float64(0)
	case KindString:
		return ""
	case KindBool:
		return false
	case KindAssociation:
		return []wire.Relationship(nil)
	default:
		return nil // composites carry structure, not a scalar value
	}
}

// isComposite reports whether the object embeds children.
func (o *object) isComposite() bool {
	return o.kind == KindList || o.kind == KindTuple
}

// root walks up to the outermost enclosing composite (or o itself).
func (o *object) root() *object {
	r := o
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// replicationRoot returns the object whose replication graph governs o's
// propagation: o itself when it has its own graph (standalone or direct
// propagation), else the nearest ancestor with a graph.
func (o *object) replicationRoot() *object {
	r := o
	for r.graph == nil && r.parent != nil {
		r = r.parent
	}
	return r
}

// pathFromRoot returns the VT-tagged path from o's replication root down
// to o (empty when o is its own replication root).
func (o *object) pathFromRoot() wire.Path {
	var rev []wire.PathElem
	for cur := o; cur.graph == nil && cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.parentLink)
	}
	// Reverse into root-first order.
	p := make(wire.Path, len(rev))
	for i, e := range rev {
		p[len(rev)-1-i] = e
	}
	return p
}

// pathFromContainer returns the VT-tagged path from the outermost
// enclosing composite down to o, regardless of o's own graph (used by the
// promotion protocol, which addresses counterparts through the tree).
func (o *object) pathFromContainer() wire.Path {
	var rev []wire.PathElem
	for cur := o; cur.parent != nil; cur = cur.parent {
		rev = append(rev, cur.parentLink)
	}
	p := make(wire.Path, len(rev))
	for i, e := range rev {
		p[len(rev)-1-i] = e
	}
	return p
}

// refreshGraph re-derives the cached current graph from the graph
// history (after inserts, aborts, or out-of-order arrivals).
func (o *object) refreshGraph() {
	cur, ok := o.graphHist.Current()
	if !ok {
		return
	}
	if g, okG := cur.Value.(*repgraph.Graph); okG {
		o.graph = g
		o.graphVT = cur.VT
	}
}

// currentGraph returns the replication graph governing o (its own or the
// inherited root graph), together with the VT it was last changed at.
func (o *object) currentGraph() (*repgraph.Graph, vtime.VT) {
	r := o.replicationRoot()
	return r.graph, r.graphVT
}

// primarySite returns the site hosting o's primary copy.
func (o *object) primarySite() vtime.SiteID {
	g, _ := o.currentGraph()
	if g == nil {
		return o.site.id
	}
	p, ok := g.PrimarySite()
	if !ok {
		return o.site.id
	}
	return p
}

// keyLink names the tuple slot that the transaction at vt set under key.
func keyLink(key string, vt vtime.VT) wire.PathElem {
	return wire.PathElem{IsKey: true, Key: key, Tag: wire.ElemTag{VT: vt}}
}

// findChild returns the index and object of the child slot named link,
// tombstoned or not.
func (o *object) findChild(link wire.PathElem) (int, *object) {
	for i, c := range o.children {
		if c.parentLink == link {
			return i, c
		}
	}
	return -1, nil
}

// isCommitted reports whether the structural change the transaction at
// vt made to the composite o is committed. A change with no version in
// o's history counts as committed: its version was garbage-collected,
// which pending versions block, or a join copied the change from another
// replica's state image, which records no version for it (installImage).
func (o *object) isCommitted(vt vtime.VT) bool {
	v, ok := o.hist.Get(vt)
	return !ok || v.Status == history.Committed
}

// removedAt reports whether any of the child o's removals at or below
// `at` applies (for committedOnly, only removals whose transaction
// committed count; otherwise every present removal counts — aborted ones
// are withdrawn by undo).
func (o *object) removedAt(at vtime.VT, committedOnly bool) bool {
	for _, r := range o.removals {
		if r.LessEq(at) && (!committedOnly || o.parent.isCommitted(r)) {
			return true
		}
	}
	return false
}

// supersedes reports whether tuple slot c wins its key over slot b:
// the greater pin, which is the setting transaction's VT, wins, so
// concurrent sets resolve alike everywhere. The pin, not the insert VT,
// decides because a join's install raises insert VTs (installImage).
func supersedes(c, b *object) bool {
	return b.parentLink.Tag.VT.Less(c.parentLink.Tag.VT)
}

// liveChild returns the tuple's live child under key: among non-removed
// slots, the one that supersedes the others.
func (o *object) liveChild(key string) *object {
	at := o.latestVT()
	var best *object
	for _, c := range o.children {
		if c.parentLink.Key != key || c.removedAt(at, false) {
			continue
		}
		if best == nil || supersedes(c, best) {
			best = c
		}
	}
	return best
}

// resolvePath walks a VT-tagged path from o down to the addressed child.
// blocked reports a component whose structural op has not yet arrived
// (indirect propagation must block, §3.2.1). With deny set — for
// primary-copy CHECKS — a removed component reports removed (an RL path
// guess failure: any removal, committed or pending, conservatively
// denies; a wrongly denied transaction simply retries). Without it — for
// UPDATE APPLICATION — tombstoned components are traversed: the
// transaction's fate was decided at the primary, and a replica with a
// pending local removal must still apply the update so all replicas
// converge whichever way the removal resolves.
func (o *object) resolvePath(p wire.Path, deny bool) (child *object, removed bool, blocked bool) {
	cur := o
	for _, elem := range p {
		holder := KindList
		if elem.IsKey {
			holder = KindTuple
		}
		if cur.kind != holder {
			return nil, false, false
		}
		_, c := cur.findChild(elem)
		if c == nil {
			return nil, false, true // structural op not yet received
		}
		if deny && c.removedAt(cur.latestVT(), false) {
			return nil, true, false
		}
		cur = c
	}
	return cur, false, false
}

// visibleChildren returns the live (non-tombstoned) children in slot
// order; for a tuple, per key only the live slot that supersedes the
// others. When committedOnly is set, children whose insert is not yet
// committed are excluded and only committed removals hide a child.
func (o *object) visibleChildren(at vtime.VT, committedOnly bool) []*object {
	var out []*object
	for _, c := range o.children {
		if !c.insertVT.LessEq(at) || committedOnly && !o.isCommitted(c.insertVT) {
			continue
		}
		if c.removedAt(at, committedOnly) {
			continue
		}
		out = append(out, c)
	}
	if o.kind == KindTuple {
		best := make(map[string]*object, len(out))
		for _, c := range out {
			if b, ok := best[c.parentLink.Key]; !ok || supersedes(c, b) {
				best[c.parentLink.Key] = c
			}
		}
		out = slices.DeleteFunc(out, func(c *object) bool { return best[c.parentLink.Key] != c })
	}
	return out
}

// readValue materializes o's value at virtual time `at`: scalars return
// the version value; composites return a structured value ([]any for
// lists, map[string]any for tuples) built recursively.
func (o *object) readValue(at vtime.VT, committedOnly bool) any {
	switch o.kind {
	case KindList:
		vis := o.visibleChildren(at, committedOnly)
		out := make([]any, 0, len(vis))
		for _, c := range vis {
			out = append(out, c.readValue(at, committedOnly))
		}
		return out
	case KindTuple:
		vis := o.visibleChildren(at, committedOnly)
		out := make(map[string]any, len(vis))
		for _, c := range vis {
			out[c.parentLink.Key] = c.readValue(at, committedOnly)
		}
		return out
	default:
		var v history.Version
		var ok bool
		if committedOnly {
			v, ok = o.hist.CommittedAt(at)
		} else {
			v, ok = o.hist.At(at)
		}
		if !ok {
			return defaultValue(o.kind)
		}
		return v.Value
	}
}

// latestVT returns the VT of the newest version affecting o, including —
// for composites — versions of embedded children (so that snapshot times
// cover child updates).
func (o *object) latestVT() vtime.VT {
	v := vtime.Zero
	if cur, ok := o.hist.Current(); ok {
		v = cur.VT
	}
	for _, c := range o.children {
		v = v.Max(c.latestVT())
		for _, r := range c.removals {
			v = v.Max(r)
		}
	}
	return v
}

// forEachDescendant visits o and every embedded child.
func (o *object) forEachDescendant(fn func(*object)) {
	fn(o)
	for _, c := range o.children {
		c.forEachDescendant(fn)
	}
}

// attachedProxies returns the view proxies that observe o: those attached
// to o itself and to any enclosing composite (a view attached to a
// composite receives notifications for changes to its children, §2.5).
func (o *object) attachedProxies() []*viewProxy {
	if o.parent == nil {
		return o.proxies // callers only read it
	}
	var out []*viewProxy
	for cur := o; cur != nil; cur = cur.parent {
		for _, p := range cur.proxies {
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}
