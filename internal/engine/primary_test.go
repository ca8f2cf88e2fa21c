package engine

import (
	"slices"
	"strings"
	"testing"

	"decaf/internal/history"
	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// The VTs of TestPrimaryCheckSites: every request runs at pcVT, reads
// (or follows a notification) at pcRead, and read its graph at pcGraph;
// a conflicting update or graph change sits at pcOther, and a foreign
// reservation (pcRead, pcOwner] holds pcVT.
var (
	pcGraph = vtime.VT{Time: 5, Site: 1}
	pcRead  = vtime.VT{Time: 10, Site: 1}
	pcOther = vtime.VT{Time: 20, Site: 3}
	pcVT    = vtime.VT{Time: 30, Site: 2}
	pcOwner = vtime.VT{Time: 40, Site: 3}
)

// pcEnv is one primary site built by hand and never started: the test
// goroutine is its event loop, and what it sends waits in its outbox.
// Site 1 hosts the primary copy of every object, each replicated at
// site 2: a scalar x, an association as, and a tuple tup whose entry "a"
// is the Int child. ghost hangs below child at a path that cannot
// resolve at the primary (child is not a tuple).
type pcEnv struct {
	s    *Site
	objs map[string]*object
}

func newPCEnv(t *testing.T) *pcEnv {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	t.Cleanup(net.Close)
	ep, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(ep, Options{})
	e := &pcEnv{s: s, objs: map[string]*object{}}
	for _, o := range []struct {
		name string
		kind Kind
	}{{"x", KindInt}, {"as", KindAssociation}, {"tup", KindTuple}} {
		obj := s.newObject(o.kind, o.name, defaultValue(o.kind))
		g := repgraph.NewGraph(obj.id, 1)
		peer := ids.ObjectID{Site: 2, Seq: obj.id.Seq}
		g.AddNode(peer, 2)
		if err := g.AddEdge(obj.id, peer); err != nil {
			t.Fatal(err)
		}
		if err := obj.graphHist.Insert(pcGraph, g, history.Committed); err != nil {
			t.Fatal(err)
		}
		obj.refreshGraph()
		e.objs[o.name] = obj
	}
	tup := e.objs["tup"]
	s.applyTupleSet(&txnState{vt: vtime.VT{Time: 2, Site: 1}}, tup,
		wire.OpTupleSet{Key: "a", Child: wire.ChildDecl{Kind: KindInt, Value: int64(0)}}, history.Committed)
	child := tup.liveChild("a")
	e.objs["child"] = child
	e.objs["ghost"] = &object{kind: KindInt, site: s, parent: child,
		parentLink: wire.PathElem{IsKey: true, Key: "z", Tag: wire.ElemTag{VT: vtime.VT{Time: 3, Site: 1}}}}
	return e
}

// held lists the tables holding a reservation owned by vt, as
// "<object>.res" (value) or "<object>.graph".
func (e *pcEnv) held(vt vtime.VT) []string {
	var out []string
	for name, o := range e.objs {
		for _, r := range o.res.All() {
			if r.Owner == vt {
				out = append(out, name+".res")
				break
			}
		}
		for _, r := range o.graphRes.All() {
			if r.Owner == vt {
				out = append(out, name+".graph")
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// originTxn is a transaction this site originated, waiting on its guesses.
func (e *pcEnv) originTxn() *txnState {
	st := &txnState{vt: pcVT, origin: 1, status: txnWaiting, handle: newHandle()}
	st.involved.add(1)
	e.s.trackTxn(st)
	return st
}

// lastSent returns the last message of type M this site queued for to.
func lastSent[M wire.Message](e *pcEnv, to vtime.SiteID) (m M) {
	for _, msg := range e.s.outbox[to] {
		if mm, ok := msg.(M); ok {
			m = mm
		}
	}
	return m
}

// seen is a verdict as one caller exposes it; transient is read from the
// reason where the caller keeps only that.
type seen struct {
	ok, transient bool
	reason        string
}

func seenReason(ok bool, reason string) seen {
	return seen{ok: ok, transient: strings.Contains(reason, "transient:"), reason: reason}
}

// pcRow is one conflict kind: plant sets it up at the primary, target is
// the object the request reads or writes, graph makes the origin's and the
// remote write's request a graph update.
type pcRow struct {
	name   string
	target string
	graph  bool
	plant  func(e *pcEnv, target *object)
	// want per column, in pcColumns order: "ok" (validated and reserved),
	// "skip" (ok, nothing validated here), "P" (permanent denial), "T"
	// (transient denial), "" (the caller cannot build this request).
	want [8]string
}

// pcColumn drives one caller of the primary check. It returns what the
// caller saw, the tables an ok verdict reserves, and how to abort the
// transaction (nil: no transaction, the reservations belong to a view
// snapshot).
type pcColumn struct {
	name string
	run  func(e *pcEnv, row pcRow, target *object) (v seen, reserves []string, abort func())
}

// valueReserves names the tables a value or read check on target reserves.
func (e *pcEnv) valueReserves(target *object) []string {
	var tname, rname string
	for name, o := range e.objs {
		if o == target {
			tname = name
		}
		if o == target.replicationRoot() {
			rname = name
		}
	}
	out := []string{tname + ".res", rname + ".graph"}
	slices.Sort(out)
	return out
}

// pcWrite is the update the origin and a remote writer build for row.
func pcWrite(row pcRow, target *object) wire.Op {
	if row.graph {
		g := target.graph.Clone()
		g.SetAnchor(target.id)
		return wire.OpGraph{Graph: g.ToWire()}
	}
	return wire.OpSet{Value: int64(1)}
}

var pcColumns = []pcColumn{
	{"origin-write", func(e *pcEnv, row pcRow, target *object) (seen, []string, func()) {
		st := e.originTxn()
		w := &writeRec{obj: target, readVT: pcRead, graphVT: pcGraph, ops: []wire.Op{pcWrite(row, target)}}
		if row.graph {
			// A refresh-like graph write: addressed to the graph it
			// installs, whose primary is this site.
			w.targetGraph = repgraph.FromWire(w.ops[0].(wire.OpGraph).Graph)
		}
		st.writes = []*writeRec{w}
		e.s.propagate(st)
		return seenReason(!st.denied, st.deniedCause.String()), e.valueReserves(target), func() { e.s.decide(st, false, textCause("abort")) }
	}},
	{"origin-read", func(e *pcEnv, row pcRow, target *object) (seen, []string, func()) {
		st := e.originTxn()
		st.reads = []readRec{{obj: target, readVT: pcRead, graphVT: pcGraph}}
		e.s.propagate(st)
		return seenReason(!st.denied, st.deniedCause.String()), e.valueReserves(target), func() { e.s.decide(st, false, textCause("abort")) }
	}},
	{"remote-write", func(e *pcEnv, row pcRow, target *object) (seen, []string, func()) {
		root := target.replicationRoot()
		u := wire.Update{Target: root.id, Path: target.pathFromRoot(), ReadVT: pcRead, GraphVT: pcGraph, Op: pcWrite(row, target)}
		e.s.handleWrite(wire.Write{TxnVT: pcVT, Origin: 2, Updates: []wire.Update{u}, NeedsConfirm: true}, false)
		c := lastSent[wire.Confirm](e, 2)
		return seen{ok: c.OK, transient: c.Transient, reason: c.Reason}, e.valueReserves(target), func() { e.s.learn(pcVT, false) }
	}},
	{"remote-confirm-read", func(e *pcEnv, row pcRow, target *object) (seen, []string, func()) {
		// A pessimistic view's CONFIRM-READ from a viewer whose graph
		// lags: only committed updates conflict.
		root := target.replicationRoot()
		e.s.handleConfirmRead(2, wire.ConfirmRead{TxnVT: pcVT, ReqID: 1, Checks: []wire.ReadCheck{{
			Target: root.id, Path: target.pathFromRoot(), ReadVT: pcRead, GraphVT: pcGraph, CommittedOnly: true,
		}}})
		c := lastSent[wire.Confirm](e, 2)
		return seen{ok: c.OK, transient: c.Transient, reason: c.Reason}, e.valueReserves(target), nil
	}},
	{"association", func(e *pcEnv, row pcRow, target *object) (seen, []string, func()) {
		// The join's membership update: a write on the association.
		st := e.originTxn()
		st.writes = []*writeRec{{obj: target, readVT: pcRead, graphVT: target.graphVT, ops: []wire.Op{wire.OpAssoc{}}}}
		e.s.propagate(st)
		return seenReason(!st.denied, st.deniedCause.String()), e.valueReserves(target), func() { e.s.decide(st, false, textCause("abort")) }
	}},
	{"join-invitee", func(e *pcEnv, row pcRow, target *object) (seen, []string, func()) {
		a := ids.ObjectID{Site: 2, Seq: 99}
		e.s.handleJoinRequest(2, wire.JoinRequest{TxnVT: pcVT, ReqID: 1, AObj: a, BObj: target.id,
			GraphA: repgraph.NewGraph(a, 2).ToWire()})
		r := lastSent[wire.JoinReply](e, 2)
		return seenReason(r.OK, r.Reason), []string{"x.graph"}, func() { e.s.learn(pcVT, false) }
	}},
	{"join-joiner", func(e *pcEnv, row pcRow, target *object) (seen, []string, func()) {
		st := e.originTxn()
		st.extraPending = 1
		e.s.joins[1] = &joinState{st: st, local: target}
		b := ids.ObjectID{Site: 3, Seq: 1}
		merged := target.graph.Clone()
		merged.AddNode(b, 3)
		if err := merged.AddEdge(target.id, b); err != nil {
			panic(err)
		}
		// ConfirmSites keeps the join waiting after an ok verdict.
		e.s.handleMessage(3, wire.JoinReply{ReqID: 1, OK: true, BValue: int64(5),
			GraphB: merged.ToWire(), ConfirmSites: []vtime.SiteID{3}})
		if st.status == txnWaiting {
			// The joined value is a blind write: its interval (tT, tT] is
			// empty, so only the graph is reserved.
			return seen{ok: true}, []string{"x.graph"}, func() { e.s.decide(st, false, textCause("abort")) }
		}
		res := <-st.handle.Done()
		return seenReason(false, res.Err.Error()), nil, func() {}
	}},
	{"view", func(e *pcEnv, row pcRow, target *object) (seen, []string, func()) {
		// A pessimistic snapshot at pcVT following a notification at
		// pcRead; the primary is local, so the check sends nothing. The
		// caller acts only on a transient denial: an ok verdict shows as
		// the reservation it leaves.
		p := &viewProxy{site: e.s, attached: []*object{target}, lastNotifiedVT: pcRead, snaps: []*snapshot{{ts: pcVT}}}
		p.requestPessimisticGuesses(0)
		reserves := e.valueReserves(target)
		return seen{ok: slices.Equal(e.held(pcVT), reserves), transient: p.snaps[0].transientWait}, reserves, nil
	}},
}

// TestPrimaryCheckSites drives every caller of the primary-copy check
// (paper §3.1, §3.3) through each conflict kind, at a site hosting the
// primary, and checks the same three things in every cell: the verdict
// the caller sees, transient bit included; the reservations the request
// leaves behind; and that aborting its transaction releases them (a view
// snapshot's stay: no transaction owns them). DESIGN.md §16 names the
// choices the unresolved-path and not-the-primary rows pin.
func TestPrimaryCheckSites(t *testing.T) {
	versionAt := func(st history.Status) func(*pcEnv, *object) {
		return func(e *pcEnv, o *object) {
			if err := o.hist.Insert(pcOther, int64(7), st); err != nil {
				t.Fatal(err)
			}
		}
	}
	//                                                      origin-write origin-read remote-write remote-confirm-read association join-invitee join-joiner view
	rows := []pcRow{
		{name: "none", target: "x", plant: func(*pcEnv, *object) {},
			want: [8]string{"ok", "ok", "ok", "ok", "ok", "ok", "ok", "ok"}},
		{name: "value-RL", target: "x", plant: versionAt(history.Committed),
			want: [8]string{"P", "P", "P", "P", "P", "", "", "P"}},
		{name: "NC", target: "x", plant: func(e *pcEnv, o *object) {
			o.res.Reserve(vtime.Interval{Lo: pcRead, Hi: pcOwner}, pcOwner)
		}, want: [8]string{"P", "ok", "P", "ok", "P", "", "P", "ok"}},
		// The association, the join and the view read the graph they
		// validate against when they check: no graph change can follow it.
		{name: "graph-RL", target: "x", plant: func(e *pcEnv, o *object) {
			if err := o.graphHist.Insert(pcOther, o.graph.Clone(), history.Committed); err != nil {
				t.Fatal(err)
			}
			o.refreshGraph()
		}, want: [8]string{"P", "P", "P", "P", "", "", "", ""}},
		{name: "graph-NC", target: "x", plant: func(e *pcEnv, o *object) {
			o.graphRes.Reserve(vtime.Interval{Lo: pcGraph, Hi: pcOwner}, pcOwner)
		}, want: [8]string{"ok", "ok", "ok", "ok", "ok", "P", "P", "ok"}},
		{name: "removed-path", target: "child", plant: func(e *pcEnv, o *object) {
			tup, at := e.objs["tup"], vtime.VT{Time: 3, Site: 1}
			c := tup.liveChild("a")
			c.removals = append(c.removals, at)
			if err := tup.hist.Insert(at, nil, history.Committed); err != nil {
				t.Fatal(err)
			}
		}, want: [8]string{"P", "P", "P", "P", "", "", "", "P"}},
		{name: "unresolved-path", target: "ghost", plant: func(*pcEnv, *object) {},
			want: [8]string{"T", "T", "T", "T", "", "", "", "T"}},
		{name: "pending-update", target: "x", plant: versionAt(history.Pending),
			want: [8]string{"P", "P", "P", "T", "P", "", "", "T"}},
		// A graph update addressed to a node that was not the primary of
		// the graph it replaces is validated by that primary, not here.
		{name: "not-the-primary", target: "x", graph: true, plant: func(e *pcEnv, o *object) {
			o.graph.SetAnchor(ids.ObjectID{Site: 2, Seq: o.id.Seq})
		}, want: [8]string{"skip", "", "skip", "", "", "", "", ""}},
	}
	for _, row := range rows {
		for i, col := range pcColumns {
			want := row.want[i]
			if want == "" {
				continue
			}
			t.Run(row.name+"/"+col.name, func(t *testing.T) {
				e := newPCEnv(t)
				target := e.objs[row.target]
				if col.name == "association" {
					target = e.objs["as"]
				}
				row.plant(e, target)
				v, reserves, abort := col.run(e, row, target)

				got := "P"
				switch {
				case v.ok:
					got = "ok"
				case v.transient:
					got = "T"
				}
				wantVerdict := want
				if want == "skip" {
					wantVerdict, reserves = "ok", nil
				}
				if got != wantVerdict {
					t.Fatalf("verdict %s (ok=%v transient=%v reason %q), want %s", got, v.ok, v.transient, v.reason, wantVerdict)
				}
				if got != "ok" {
					reserves = nil
				}
				if held := e.held(pcVT); !slices.Equal(held, reserves) {
					t.Errorf("reservations held by %s: %v, want %v", pcVT, held, reserves)
				}
				if abort == nil {
					return
				}
				abort()
				if held := e.held(pcVT); len(held) > 0 {
					t.Errorf("reservations held by %s after its abort: %v", pcVT, held)
				}
			})
		}
	}
}
