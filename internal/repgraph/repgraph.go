// Package repgraph implements replication graphs: connected multigraphs
// whose nodes are model-object references and whose multi-edges are the
// replica relations users build (paper §3). Each model object keeps a
// history of such graphs, and a deterministic function maps every graph to
// a primary copy — the anchor node that rooted the relationship, falling
// back to the minimum node — so that all sites agree on the primary site
// without any election protocol (paper §3.3).
package repgraph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"decaf/internal/ids"
	"decaf/internal/vtime"
)

// Edge is one replica relation between two model objects. The same pair
// may appear several times (multigraph): relations established through
// different associations are distinct edges and are removed independently.
type Edge struct {
	A, B ids.ObjectID
}

// normalized returns the edge with endpoints in canonical order.
func (e Edge) normalized() Edge {
	if e.B.Less(e.A) {
		return Edge{A: e.B, B: e.A}
	}
	return e
}

// Graph is a replication multigraph. The zero value is an empty graph;
// NewGraph creates a single-node graph. Graphs are value-like: mutating
// methods operate in place, and Clone produces an independent copy.
//
// Graph is not safe for concurrent use while it is being mutated; an
// unchanging graph may be read concurrently.
type Graph struct {
	nodes map[ids.ObjectID]vtime.SiteID // node -> site hosting that replica
	edges map[Edge]int                  // normalized edge -> multiplicity
	// anchor, when present among the nodes, is the primary copy: the
	// node that first rooted the relationship (Chu-Hellerstein style
	// exclusive writer). It is part of the replicated graph value, so
	// the primary remains a pure function of the graph. When the anchor
	// node is absent (it left or its site failed), the primary falls
	// back to the minimum node.
	anchor ids.ObjectID

	// The routing facts, which depend on the nodes and the anchor but not
	// on the edges. Every mutator that changes either recomputes them
	// (route); read paths never write them, so concurrent readers of an
	// unchanging graph stay race-free.
	order      []WireNode     // nodes in canonical (ObjectID) order
	sites      []vtime.SiteID // distinct sites hosting nodes, ascending
	primary    WireNode       // see Primary
	hasPrimary bool           // false only for an empty graph
}

// route recomputes the routing facts from the nodes and the anchor.
func (g *Graph) route() {
	g.order = g.order[:0]
	for obj, site := range g.nodes {
		g.order = append(g.order, WireNode{Obj: obj, Site: site})
	}
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].Obj.Less(g.order[j].Obj) })
	g.sites = g.sites[:0]
	for _, n := range g.order {
		g.sites = append(g.sites, n.Site)
	}
	slices.Sort(g.sites)
	g.sites = slices.Compact(g.sites)
	g.primary, g.hasPrimary = WireNode{}, len(g.order) > 0
	if site, ok := g.nodes[g.anchor]; ok {
		g.primary = WireNode{Obj: g.anchor, Site: site}
	} else if g.hasPrimary {
		g.primary = g.order[0]
	}
}

// NewGraph returns a graph containing the single node obj hosted at site,
// with no edges — the replication graph of a not-yet-collaborating object.
func NewGraph(obj ids.ObjectID, site vtime.SiteID) *Graph {
	g := &Graph{
		nodes:  map[ids.ObjectID]vtime.SiteID{obj: site},
		edges:  map[Edge]int{},
		anchor: obj,
	}
	g.route()
	return g
}

// SetAnchor designates the primary-copy node. The anchor is replicated as
// part of the graph value; an anchor not present among the nodes is
// ignored by Primary.
func (g *Graph) SetAnchor(obj ids.ObjectID) {
	g.anchor = obj
	g.route()
}

// Anchor returns the designated primary-copy node (possibly absent).
func (g *Graph) Anchor() ids.ObjectID { return g.anchor }

func (g *Graph) init() {
	if g.nodes == nil {
		g.nodes = map[ids.ObjectID]vtime.SiteID{}
	}
	if g.edges == nil {
		g.edges = map[Edge]int{}
	}
}

// AddNode inserts a node hosted at the given site. Adding an existing node
// is a no-op (the site must match; object identity determines the host).
func (g *Graph) AddNode(obj ids.ObjectID, site vtime.SiteID) {
	g.init()
	g.nodes[obj] = site
	g.route()
}

// AddEdge records one replica relation between a and b, adding the nodes
// if needed is NOT done here — both endpoints must already be present.
// It returns an error if either endpoint is unknown.
func (g *Graph) AddEdge(a, b ids.ObjectID) error {
	g.init()
	if _, ok := g.nodes[a]; !ok {
		return fmt.Errorf("repgraph: edge endpoint %s not in graph", a)
	}
	if _, ok := g.nodes[b]; !ok {
		return fmt.Errorf("repgraph: edge endpoint %s not in graph", b)
	}
	if a == b {
		return fmt.Errorf("repgraph: self edge on %s", a)
	}
	g.edges[Edge{A: a, B: b}.normalized()]++
	return nil
}

// RemoveEdge removes one multiplicity of the relation between a and b.
// It reports whether such an edge existed.
func (g *Graph) RemoveEdge(a, b ids.ObjectID) bool {
	e := Edge{A: a, B: b}.normalized()
	n, ok := g.edges[e]
	if !ok {
		return false
	}
	if n <= 1 {
		delete(g.edges, e)
	} else {
		g.edges[e] = n - 1
	}
	return true
}

// RemoveNode deletes a node and all its incident edges (an object leaving
// a collaboration, or a failed site's replica being dropped). It reports
// whether the node was present.
func (g *Graph) RemoveNode(obj ids.ObjectID) bool {
	if !g.removeNode(obj) {
		return false
	}
	g.route()
	return true
}

// removeNode is RemoveNode without recomputing the routing facts.
func (g *Graph) removeNode(obj ids.ObjectID) bool {
	if _, ok := g.nodes[obj]; !ok {
		return false
	}
	delete(g.nodes, obj)
	for e := range g.edges {
		if e.A == obj || e.B == obj {
			delete(g.edges, e)
		}
	}
	return true
}

// neighborsOf returns the distinct nodes adjacent to obj, sorted.
func (g *Graph) neighborsOf(obj ids.ObjectID) []ids.ObjectID {
	set := map[ids.ObjectID]bool{}
	for e := range g.edges {
		switch obj {
		case e.A:
			set[e.B] = true
		case e.B:
			set[e.A] = true
		}
	}
	out := make([]ids.ObjectID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// RemoveNodeContract removes obj and chains its former neighbors together,
// preserving the connectivity of the remaining relationship. Replica
// relationships are symmetric and transitive (paper §2.2), so members that
// were joined *through* the removed node remain replicas of one another
// after it leaves or fails.
func (g *Graph) RemoveNodeContract(obj ids.ObjectID) bool {
	nb := g.neighborsOf(obj)
	if !g.RemoveNode(obj) {
		return false
	}
	for i := 1; i < len(nb); i++ {
		// AddEdge only fails for unknown endpoints; the neighbors were
		// just verified as members.
		_ = g.AddEdge(nb[i-1], nb[i])
	}
	return true
}

// RemoveSiteContract removes every node at the given site with edge
// contraction (see RemoveNodeContract), returning the removed nodes.
func (g *Graph) RemoveSiteContract(site vtime.SiteID) []ids.ObjectID {
	removed := g.RemoveSiteDryRun(site)
	for _, obj := range removed {
		g.RemoveNodeContract(obj)
	}
	return removed
}

// RemoveSite deletes every node hosted at the given site, with incident
// edges (fail-stop site removal, paper §3.4). It returns the removed nodes.
func (g *Graph) RemoveSite(site vtime.SiteID) []ids.ObjectID {
	var removed []ids.ObjectID
	for obj, s := range g.nodes {
		if s == site {
			removed = append(removed, obj)
		}
	}
	for _, obj := range removed {
		g.removeNode(obj)
	}
	g.route()
	sort.Slice(removed, func(i, j int) bool { return removed[i].Less(removed[j]) })
	return removed
}

// RemoveSiteDryRun returns the nodes hosted at site without modifying the
// graph (used to test whether a failure affects this graph).
func (g *Graph) RemoveSiteDryRun(site vtime.SiteID) []ids.ObjectID {
	var out []ids.ObjectID
	for obj, s := range g.nodes {
		if s == site {
			out = append(out, obj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Has reports whether obj is a node of the graph.
func (g *Graph) Has(obj ids.ObjectID) bool {
	_, ok := g.nodes[obj]
	return ok
}

// SiteOf returns the site hosting obj's replica.
func (g *Graph) SiteOf(obj ids.ObjectID) (vtime.SiteID, bool) {
	s, ok := g.nodes[obj]
	return s, ok
}

// Nodes returns a copy of the graph's nodes in canonical (ObjectID) order.
func (g *Graph) Nodes() []ids.ObjectID {
	out := make([]ids.ObjectID, 0, len(g.order))
	for _, n := range g.order {
		out = append(out, n.Obj)
	}
	return out
}

// NodeAt returns the i-th node in canonical order and its site, for
// 0 <= i < NumNodes. It lets hot paths walk the nodes without the copy
// Nodes makes.
func (g *Graph) NodeAt(i int) (ids.ObjectID, vtime.SiteID) {
	n := g.order[i]
	return n.Obj, n.Site
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges counting multiplicity.
func (g *Graph) NumEdges() int {
	n := 0
	for _, m := range g.edges {
		n += m
	}
	return n
}

// EachSite calls fn with every distinct site hosting replicas, in
// ascending order, without the copy Sites makes.
func (g *Graph) EachSite(fn func(vtime.SiteID)) {
	for _, s := range g.sites {
		fn(s)
	}
}

// Sites returns a copy of the distinct sites hosting replicas, in
// ascending order.
func (g *Graph) Sites() []vtime.SiteID {
	return append(make([]vtime.SiteID, 0, len(g.sites)), g.sites...)
}

// Primary returns the primary copy of the graph: the anchor node when it
// is still a member, else the minimum node under the canonical ObjectID
// order. This is the paper's "function which maps replication graphs to a
// selected node in that graph" — deterministic, with no election phase
// (§3.3). ok is false for an empty graph.
func (g *Graph) Primary() (ids.ObjectID, bool) {
	return g.primary.Obj, g.hasPrimary
}

// PrimarySite returns the site hosting the primary copy.
func (g *Graph) PrimarySite() (vtime.SiteID, bool) {
	return g.primary.Site, g.hasPrimary
}

// Component returns the subgraph reachable from start (including start).
// After node removals a graph may disconnect; each object then retains
// only its own component.
func (g *Graph) Component(start ids.ObjectID) *Graph {
	out := &Graph{nodes: map[ids.ObjectID]vtime.SiteID{}, edges: map[Edge]int{}}
	if _, ok := g.nodes[start]; !ok {
		return out
	}
	// BFS over the multigraph.
	visited := map[ids.ObjectID]bool{start: true}
	queue := []ids.ObjectID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out.nodes[cur] = g.nodes[cur]
		for e, m := range g.edges {
			var other ids.ObjectID
			switch cur {
			case e.A:
				other = e.B
			case e.B:
				other = e.A
			default:
				continue
			}
			out.edges[e] = m
			if !visited[other] {
				visited[other] = true
				queue = append(queue, other)
			}
		}
	}
	out.route()
	return out
}

// Connected reports whether the graph is a single connected component.
// The empty graph counts as connected.
func (g *Graph) Connected() bool {
	if len(g.nodes) <= 1 {
		return true
	}
	var start ids.ObjectID
	for obj := range g.nodes {
		start = obj
		break
	}
	return g.Component(start).NumNodes() == len(g.nodes)
}

// Merge unions other into g (nodes and edge multiplicities). Used by the
// join protocol: when A joins B's relationship, both graphs merge into the
// combined graph gA ∪ gB distributed to all replicas (paper §3.3).
func (g *Graph) Merge(other *Graph) {
	g.init()
	if other == nil {
		return
	}
	for obj, site := range other.nodes {
		g.nodes[obj] = site
	}
	if _, ok := g.nodes[g.anchor]; !ok {
		// Adopt the other graph's anchor when ours is unset or gone.
		g.anchor = other.anchor
	}
	for e, m := range other.edges {
		if cur := g.edges[e]; m > cur {
			// Edge multiplicities are facts about distinct join
			// operations; union takes the max so merging a graph with
			// itself is idempotent.
			g.edges[e] = m
		}
	}
	g.route()
}

// Clone returns an independent deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		nodes:  make(map[ids.ObjectID]vtime.SiteID, len(g.nodes)),
		edges:  make(map[Edge]int, len(g.edges)),
		anchor: g.anchor,
	}
	for k, v := range g.nodes {
		out.nodes[k] = v
	}
	for k, v := range g.edges {
		out.edges[k] = v
	}
	out.route()
	return out
}

// Equal reports whether two graphs have identical nodes, sites, and edge
// multiplicities.
func (g *Graph) Equal(other *Graph) bool {
	if other == nil {
		return g == nil || len(g.nodes) == 0
	}
	if len(g.nodes) != len(other.nodes) || len(g.edges) != len(other.edges) {
		return false
	}
	if g.anchor != other.anchor {
		return false
	}
	for k, v := range g.nodes {
		if ov, ok := other.nodes[k]; !ok || ov != v {
			return false
		}
	}
	for k, v := range g.edges {
		if ov, ok := other.edges[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// String renders the graph deterministically, for logs and tests.
func (g *Graph) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, n := range g.order {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s@%s", n.Obj, n.Site)
	}
	b.WriteString(" |")
	edges := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A.Less(edges[j].A)
		}
		return edges[i].B.Less(edges[j].B)
	})
	for _, e := range edges {
		fmt.Fprintf(&b, " %s-%s", e.A, e.B)
		if m := g.edges[e]; m > 1 {
			fmt.Fprintf(&b, "x%d", m)
		}
	}
	b.WriteString("}")
	return b.String()
}

// Wire is the flattened form of a Graph that the wire codec encodes.
type Wire struct {
	Nodes  []WireNode
	Edges  []WireEdge
	Anchor ids.ObjectID
}

// WireNode is one node of a wire-form graph.
type WireNode struct {
	Obj  ids.ObjectID
	Site vtime.SiteID
}

// WireEdge is one edge (with multiplicity) of a wire-form graph.
type WireEdge struct {
	Edge  Edge
	Count int
}

// ToWire flattens the graph deterministically for transmission.
func (g *Graph) ToWire() Wire {
	w := Wire{Anchor: g.anchor, Nodes: slices.Clone(g.order)}
	edges := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A.Less(edges[j].A)
		}
		return edges[i].B.Less(edges[j].B)
	})
	for _, e := range edges {
		w.Edges = append(w.Edges, WireEdge{Edge: e, Count: g.edges[e]})
	}
	return w
}

// FromWire reconstructs a Graph from its wire form.
func FromWire(w Wire) *Graph {
	g := &Graph{nodes: map[ids.ObjectID]vtime.SiteID{}, edges: map[Edge]int{}, anchor: w.Anchor}
	for _, n := range w.Nodes {
		g.nodes[n.Obj] = n.Site
	}
	for _, e := range w.Edges {
		g.edges[e.Edge] = e.Count
	}
	g.route()
	return g
}
