package repgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"decaf/internal/ids"
	"decaf/internal/vtime"
)

func obj(site uint32, seq uint64) ids.ObjectID {
	return ids.ObjectID{Site: vtime.SiteID(site), Seq: seq}
}

func triangle(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(obj(1, 1), 1)
	g.AddNode(obj(2, 1), 2)
	g.AddNode(obj(3, 1), 3)
	for _, pair := range [][2]ids.ObjectID{
		{obj(1, 1), obj(2, 1)},
		{obj(2, 1), obj(3, 1)},
		{obj(3, 1), obj(1, 1)},
	} {
		if err := g.AddEdge(pair[0], pair[1]); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

func TestNewGraphSingleNode(t *testing.T) {
	g := NewGraph(obj(5, 2), 5)
	if g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatalf("NewGraph: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	p, ok := g.Primary()
	if !ok || p != obj(5, 2) {
		t.Fatalf("Primary = %v,%v", p, ok)
	}
	site, ok := g.PrimarySite()
	if !ok || site != 5 {
		t.Fatalf("PrimarySite = %v,%v", site, ok)
	}
	if !g.Connected() {
		t.Fatal("single node graph should be connected")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph(obj(1, 1), 1)
	if err := g.AddEdge(obj(1, 1), obj(9, 9)); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := g.AddEdge(obj(1, 1), obj(1, 1)); err == nil {
		t.Fatal("self edge accepted")
	}
}

func TestMultiEdges(t *testing.T) {
	g := NewGraph(obj(1, 1), 1)
	g.AddNode(obj(2, 1), 2)
	for i := 0; i < 3; i++ {
		if err := g.AddEdge(obj(1, 1), obj(2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (multigraph)", g.NumEdges())
	}
	// Edges are undirected: removing with reversed endpoints works.
	if !g.RemoveEdge(obj(2, 1), obj(1, 1)) {
		t.Fatal("RemoveEdge failed")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	g.RemoveEdge(obj(1, 1), obj(2, 1))
	g.RemoveEdge(obj(1, 1), obj(2, 1))
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if g.RemoveEdge(obj(1, 1), obj(2, 1)) {
		t.Fatal("removing nonexistent edge reported success")
	}
}

func TestPrimaryIsMinNode(t *testing.T) {
	g := triangle(t)
	p, ok := g.Primary()
	if !ok || p != obj(1, 1) {
		t.Fatalf("Primary = %v, want s1/1", p)
	}
	// Removing the primary moves it to the next smallest node.
	g.RemoveNode(obj(1, 1))
	p, ok = g.Primary()
	if !ok || p != obj(2, 1) {
		t.Fatalf("Primary after removal = %v, want s2/1", p)
	}
}

func TestPrimaryDeterministicAcrossConstructionOrder(t *testing.T) {
	// Property: the primary is a pure function of the graph contents,
	// independent of insertion order (the paper's no-election property).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		nodes := make([]ids.ObjectID, n)
		for i := range nodes {
			nodes[i] = obj(uint32(rng.Intn(4)+1), uint64(i+1))
		}
		build := func(perm []int) *Graph {
			g := &Graph{}
			for _, i := range perm {
				g.AddNode(nodes[i], nodes[i].Site)
			}
			for i := 1; i < n; i++ {
				_ = g.AddEdge(nodes[perm[0]], nodes[perm[i%n]])
			}
			return g
		}
		g1 := build(rng.Perm(n))
		g2 := build(rng.Perm(n))
		p1, ok1 := g1.Primary()
		p2, ok2 := g2.Primary()
		return ok1 && ok2 && p1 == p2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNodeRemovesIncidentEdges(t *testing.T) {
	g := triangle(t)
	if !g.RemoveNode(obj(2, 1)) {
		t.Fatal("RemoveNode failed")
	}
	if g.RemoveNode(obj(2, 1)) {
		t.Fatal("double remove succeeded")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("after removal: %d nodes, %d edges; want 2, 1", g.NumNodes(), g.NumEdges())
	}
}

func TestRemoveSite(t *testing.T) {
	g := triangle(t)
	g.AddNode(obj(2, 2), 2)
	if err := g.AddEdge(obj(2, 2), obj(1, 1)); err != nil {
		t.Fatal(err)
	}
	removed := g.RemoveSite(2)
	if len(removed) != 2 || removed[0] != obj(2, 1) || removed[1] != obj(2, 2) {
		t.Fatalf("RemoveSite removed %v", removed)
	}
	for _, s := range g.Sites() {
		if s == 2 {
			t.Fatal("site 2 still present")
		}
	}
}

func TestComponentAfterDisconnection(t *testing.T) {
	// Chain a-b-c; removing b disconnects a from c.
	g := NewGraph(obj(1, 1), 1)
	g.AddNode(obj(2, 1), 2)
	g.AddNode(obj(3, 1), 3)
	_ = g.AddEdge(obj(1, 1), obj(2, 1))
	_ = g.AddEdge(obj(2, 1), obj(3, 1))
	if !g.Connected() {
		t.Fatal("chain should be connected")
	}
	g.RemoveNode(obj(2, 1))
	if g.Connected() {
		t.Fatal("removing middle node should disconnect")
	}
	comp := g.Component(obj(1, 1))
	if comp.NumNodes() != 1 || !comp.Has(obj(1, 1)) {
		t.Fatalf("component of a = %v", comp)
	}
	if comp.Has(obj(3, 1)) {
		t.Fatal("component of a should not contain c")
	}
}

func TestMergeIdempotentAndStructureCommutative(t *testing.T) {
	a := triangle(t)
	b := NewGraph(obj(4, 1), 4)
	b.AddNode(obj(1, 1), 1)
	_ = b.AddEdge(obj(4, 1), obj(1, 1))

	m1 := a.Clone()
	m1.Merge(b)
	m2 := b.Clone()
	m2.Merge(a)
	// Structure (nodes, edges) is commutative; the anchor keeps the
	// receiver's by design (the invitee's relationship wins).
	m2align := m2.Clone()
	m2align.SetAnchor(m1.Anchor())
	if !m1.Equal(m2align) {
		t.Fatalf("merge structure not commutative:\n%v\n%v", m1, m2)
	}
	m3 := m1.Clone()
	m3.Merge(m1)
	if !m3.Equal(m1) {
		t.Fatalf("merge not idempotent:\n%v\n%v", m3, m1)
	}
	if m1.NumNodes() != 4 {
		t.Fatalf("merged node count = %d, want 4", m1.NumNodes())
	}
}

func TestAnchorPrimary(t *testing.T) {
	// The anchor designates the primary regardless of node order; when
	// the anchor node leaves, the primary falls back to the minimum node.
	g := NewGraph(obj(4, 7), 4) // anchored at s4/7
	g.AddNode(obj(1, 1), 1)
	g.AddNode(obj(2, 1), 2)
	_ = g.AddEdge(obj(4, 7), obj(1, 1))
	_ = g.AddEdge(obj(4, 7), obj(2, 1))

	p, ok := g.Primary()
	if !ok || p != obj(4, 7) {
		t.Fatalf("Primary = %v, want anchor s4/7", p)
	}
	site, _ := g.PrimarySite()
	if site != 4 {
		t.Fatalf("PrimarySite = %v, want 4", site)
	}
	g.RemoveNode(obj(4, 7))
	p, ok = g.Primary()
	if !ok || p != obj(1, 1) {
		t.Fatalf("fallback Primary = %v, want min node s1/1", p)
	}
}

func TestMergeAdoptsAnchorWhenReceiverHasNone(t *testing.T) {
	var g Graph
	g.AddNode(obj(3, 1), 3)
	other := NewGraph(obj(2, 5), 2)
	g.Merge(other)
	if p, ok := g.Primary(); !ok || p != obj(2, 5) {
		t.Fatalf("Primary = %v, want adopted anchor s2/5", p)
	}
}

func TestAnchorSurvivesWire(t *testing.T) {
	g := NewGraph(obj(4, 7), 4)
	g.AddNode(obj(1, 1), 1)
	_ = g.AddEdge(obj(4, 7), obj(1, 1))
	got := FromWire(g.ToWire())
	if p, _ := got.Primary(); p != obj(4, 7) {
		t.Fatalf("anchor lost over wire: primary = %v", p)
	}
	if !got.Equal(g) {
		t.Fatal("wire round trip unequal with anchor")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := triangle(t)
	c := g.Clone()
	c.RemoveNode(obj(1, 1))
	if !g.Has(obj(1, 1)) {
		t.Fatal("mutating clone affected original")
	}
	if g.NumEdges() != 3 {
		t.Fatal("original edges changed")
	}
}

func TestEqual(t *testing.T) {
	a, b := triangle(t), triangle(t)
	if !a.Equal(b) {
		t.Fatal("identical graphs unequal")
	}
	b.RemoveEdge(obj(1, 1), obj(2, 1))
	if a.Equal(b) {
		t.Fatal("graphs with different edges equal")
	}
	var empty Graph
	if empty.Equal(a) {
		t.Fatal("empty equals nonempty")
	}
	if !empty.Equal(&Graph{}) {
		t.Fatal("two empties unequal")
	}
	if !empty.Equal(nil) {
		t.Fatal("empty should equal nil")
	}
}

func TestWireRoundTrip(t *testing.T) {
	g := triangle(t)
	_ = g.AddEdge(obj(1, 1), obj(2, 1)) // multiplicity 2
	got := FromWire(g.ToWire())
	if !got.Equal(g) {
		t.Fatalf("wire round trip: got %v, want %v", got, g)
	}
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := &Graph{}
		n := rng.Intn(8) + 1
		nodes := make([]ids.ObjectID, n)
		for i := range nodes {
			nodes[i] = obj(uint32(rng.Intn(3)+1), uint64(i))
			g.AddNode(nodes[i], nodes[i].Site)
		}
		for k := 0; k < rng.Intn(10); k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				_ = g.AddEdge(nodes[i], nodes[j])
			}
		}
		return FromWire(g.ToWire()).Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSites(t *testing.T) {
	g := triangle(t)
	g.AddNode(obj(2, 9), 2) // second object at site 2
	sites := g.Sites()
	want := []vtime.SiteID{1, 2, 3}
	if len(sites) != len(want) {
		t.Fatalf("Sites = %v", sites)
	}
	for i := range want {
		if sites[i] != want[i] {
			t.Fatalf("Sites = %v, want %v", sites, want)
		}
	}
}

func TestStringDeterministic(t *testing.T) {
	a, b := triangle(t), triangle(t)
	for i := 0; i < 10; i++ {
		if a.String() != b.String() {
			t.Fatal("String not deterministic")
		}
	}
}

// TestGraphRoutingMatchesRecompute checks the routing facts every mutator
// keeps (canonical order, primary, sites) against a fresh computation from
// the nodes and the anchor, over random mutation sequences. Two graphs
// evolve side by side so that Merge and Clone mix them.
func TestGraphRoutingMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randObj := func() ids.ObjectID { return obj(uint32(1+rng.Intn(4)), uint64(1+rng.Intn(3))) }
		gs := [2]*Graph{NewGraph(randObj(), 1), {}}
		for step := 0; step < 40; step++ {
			i := rng.Intn(2)
			g, other := gs[i], gs[1-i]
			o := randObj()
			var did string
			switch rng.Intn(12) {
			case 0, 1, 2:
				did = "AddNode"
				g.AddNode(o, o.Site)
			case 3:
				did = "AddEdge"
				_ = g.AddEdge(o, randObj())
			case 4:
				did = "RemoveNode"
				g.RemoveNode(o)
			case 5:
				did = "RemoveNodeContract"
				g.RemoveNodeContract(o)
			case 6:
				did = "RemoveSite"
				g.RemoveSite(o.Site)
			case 7:
				did = "RemoveSiteContract"
				g.RemoveSiteContract(o.Site)
			case 8:
				did = "SetAnchor"
				g.SetAnchor(o)
			case 9:
				did = "Merge"
				g.Merge(other)
			case 10:
				did = "Component"
				gs[i] = g.Component(o)
			case 11:
				if rng.Intn(2) == 0 {
					did = "FromWire"
					gs[i] = FromWire(other.ToWire())
				} else {
					did = "Clone"
					gs[i] = other.Clone()
				}
			}
			for k, g := range gs {
				if msg := routingMismatch(g); msg != "" {
					t.Fatalf("seed %d step %d (%s on graph %d): graph %d %s: %s", seed, step, did, i, k, g, msg)
				}
			}
		}
	}
}

// routingMismatch compares g's routing facts with a recomputation.
func routingMismatch(g *Graph) string {
	var order []ids.ObjectID
	set := map[vtime.SiteID]bool{}
	for n, s := range g.nodes {
		order = append(order, n)
		set[s] = true
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Less(order[j]) })
	var sites []vtime.SiteID
	for s := range set {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	primary, hasPrimary := g.anchor, true
	if _, ok := g.nodes[g.anchor]; !ok {
		primary, hasPrimary = ids.ObjectID{}, len(order) > 0
		if hasPrimary {
			primary = order[0]
		}
	}

	if got := g.Nodes(); !slices.Equal(got, order) {
		return fmt.Sprintf("Nodes() = %v, want %v", got, order)
	}
	for i, n := range order {
		if obj, site := g.NodeAt(i); obj != n || site != g.nodes[n] {
			return fmt.Sprintf("NodeAt(%d) = %v@%v, want %v@%v", i, obj, site, n, g.nodes[n])
		}
	}
	if got := g.Sites(); !slices.Equal(got, sites) {
		return fmt.Sprintf("Sites() = %v, want %v", got, sites)
	}
	var each []vtime.SiteID
	g.EachSite(func(s vtime.SiteID) { each = append(each, s) })
	if !slices.Equal(each, sites) {
		return fmt.Sprintf("EachSite visits %v, want %v", each, sites)
	}
	if p, ok := g.Primary(); p != primary || ok != hasPrimary {
		return fmt.Sprintf("Primary() = %v, %v, want %v, %v", p, ok, primary, hasPrimary)
	}
	if s, ok := g.PrimarySite(); s != g.nodes[primary] || ok != hasPrimary {
		return fmt.Sprintf("PrimarySite() = %v, %v, want %v, %v", s, ok, g.nodes[primary], hasPrimary)
	}
	return ""
}

// TestGraphConcurrentReaders reads one unchanging graph from several
// goroutines at once: no read path may write the routing facts, which
// the race detector would report.
func TestGraphConcurrentReaders(t *testing.T) {
	g := triangle(t)
	g.SetAnchor(obj(2, 1))
	want := g.String()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				if msg := routingMismatch(g); msg != "" {
					t.Error(msg)
					return
				}
				if got := FromWire(g.ToWire()).String(); got != want {
					t.Errorf("wire round trip %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
