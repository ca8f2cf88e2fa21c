package engine

import (
	"reflect"
	"slices"
	"testing"

	"decaf/internal/history"
	"decaf/internal/ids"
	"decaf/internal/obs"
	"decaf/internal/repgraph"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wal"
	"decaf/internal/wire"
)

// The VTs of TestPropagationSites: every replica graph was installed at
// psGraph, the invitee's join runs at psJoin, and a foreign reservation
// owned by psFar covers every VT.
var (
	psGraph = vtime.VT{Time: 2, Site: 1}
	psJoin  = vtime.VT{Time: 50, Site: 3}
	psFar   = vtime.VT{Time: 1 << 40, Site: 2}
)

// psEnv is site 1 built by hand and never started, as in TestPrimaryCheckSites:
// the test goroutine is its event loop, and what it sends waits in its
// outbox. A Write it sends to itself shows in Stats.SerialWrites.
type psEnv struct {
	s *Site
}

func newPSEnv(t *testing.T, withWAL bool) *psEnv {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	t.Cleanup(net.Close)
	ep, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Observer: obs.New()}
	if withWAL {
		l, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		opts.WAL = l
	}
	s := NewSite(ep, opts)
	s.clock.Observe(vtime.VT{Time: 10, Site: 2}) // every transaction runs above psGraph
	return &psEnv{s: s}
}

// replicated creates an object of kind whose graph holds it, a sibling
// replica at this site when sibling is set, and replicas at sites 2 and 3.
// The primary is the node at site primary (1: the sibling if there is one,
// else obj itself).
func (e *psEnv) replicated(t *testing.T, kind Kind, sibling bool, primary vtime.SiteID) (obj, sib *object) {
	t.Helper()
	obj = e.s.newObject(kind, "obj", defaultValue(kind))
	g := repgraph.NewGraph(obj.id, 1)
	nodes := map[vtime.SiteID]ids.ObjectID{1: obj.id}
	if sibling {
		sib = e.s.newObject(kind, "sib", defaultValue(kind))
		g.AddNode(sib.id, 1)
		nodes[1] = sib.id
	}
	for _, site := range []vtime.SiteID{2, 3} {
		nodes[site] = ids.ObjectID{Site: site, Seq: obj.id.Seq}
		g.AddNode(nodes[site], site)
	}
	for _, n := range nodes {
		if n == obj.id {
			continue
		}
		if err := g.AddEdge(obj.id, n); err != nil {
			t.Fatal(err)
		}
	}
	g.SetAnchor(nodes[primary])
	for _, o := range []*object{obj, sib} {
		if o == nil {
			continue
		}
		if err := o.graphHist.Insert(psGraph, g.Clone(), history.Committed); err != nil {
			t.Fatal(err)
		}
		o.refreshGraph()
	}
	return obj, sib
}

// execute runs one guessed or fast transaction through the origin's
// ordinary path and returns its state here.
func (e *psEnv) execute(body func(tx *Tx)) (st *txnState) {
	e.s.execute(&Txn{Name: "ps", Execute: func(tx *Tx) error {
		st = tx.st
		body(tx)
		return nil
	}}, newHandle(), 0)
	return st
}

// join runs a join of local (with a membership update on assoc, if set)
// against an object B at site 3, delivering B's reply naming confirm as
// the sites that confirm gB's update.
func (e *psEnv) join(t *testing.T, local, assoc *object, confirm []vtime.SiteID) *txnState {
	t.Helper()
	b := ids.ObjectID{Site: 3, Seq: 99}
	e.s.startJoinAttempt(newHandle(), local, 3, b, assoc, "rel", 0)
	var reqID uint64
	var js *joinState
	for id, j := range e.s.joins {
		reqID, js = id, j
	}
	merged := local.graph.Clone()
	merged.AddNode(b, 3)
	if err := merged.AddEdge(local.id, b); err != nil {
		t.Fatal(err)
	}
	e.s.handleMessage(3, wire.JoinReply{ReqID: reqID, OK: true, BValue: int64(5),
		GraphB: merged.ToWire(), ConfirmSites: confirm})
	return js.st
}

// psSender is one of the five senders that ship an update to a replica
// graph. run ships one update of obj's graph and returns the transaction's
// state here.
type psSender struct {
	name   string
	kind   Kind
	origin vtime.SiteID // the Origin its messages carry
	fast   bool         // FastWrites, committed where they land
	// ships says, per destination site, whether its message asks for a
	// confirmation.
	ships map[vtime.SiteID]bool
	// graph and value: what a sibling replica receives.
	graph, value bool
	// entries is the number of entries a primary at this site validates.
	entries int
	// failed is the site a failure cell marks failed.
	failed vtime.SiteID
	run    func(t *testing.T, e *psEnv, obj *object, failed vtime.SiteID) *txnState
}

var psSenders = []psSender{
	{name: "guessed-write", kind: KindInt, origin: 1, ships: map[vtime.SiteID]bool{2: true, 3: false},
		value: true, entries: 1, failed: 2,
		run: func(t *testing.T, e *psEnv, obj *object, _ vtime.SiteID) *txnState {
			return e.execute(func(tx *Tx) { tx.WriteScalar(obj, int64(1)) })
		}},
	{name: "fast-write", kind: KindInt, origin: 1, fast: true, ships: map[vtime.SiteID]bool{2: false, 3: false},
		value: true,
		run: func(t *testing.T, e *psEnv, obj *object, _ vtime.SiteID) *txnState {
			return e.execute(func(tx *Tx) { tx.AddScalar(obj, int64(1)) })
		}},
	{name: "association", kind: KindAssociation, origin: 1, ships: map[vtime.SiteID]bool{2: true, 3: false},
		value: true, entries: 1, failed: 2,
		run: func(t *testing.T, e *psEnv, assoc *object, _ vtime.SiteID) *txnState {
			return e.join(t, e.s.newObject(KindInt, "joiner", int64(0)), assoc, nil)
		}},
	// The joiner is site 3: the invitee sends it the reply, not a Write.
	// A failed gB primary is still named among the sites that confirm, so
	// the joiner applies the rule to it.
	{name: "join-invitee", kind: KindInt, origin: 3, ships: map[vtime.SiteID]bool{2: true},
		graph: true, entries: 1, failed: 2,
		run: func(t *testing.T, e *psEnv, b *object, _ vtime.SiteID) *txnState {
			a := ids.ObjectID{Site: 3, Seq: 99}
			e.s.handleJoinRequest(3, wire.JoinRequest{TxnVT: psJoin, ReqID: 1, AObj: a, BObj: b.id,
				GraphA: repgraph.NewGraph(a, 3).ToWire()})
			return e.s.txns[psJoin]
		}},
	// The failure cell fails site 3, which B's reply names as gB's
	// confirming site: the ConfirmSites arm of the rule.
	{name: "join-joiner", kind: KindInt, origin: 1, ships: map[vtime.SiteID]bool{2: true, 3: false},
		graph: true, value: true, entries: 2, failed: 3,
		run: func(t *testing.T, e *psEnv, local *object, failed vtime.SiteID) *txnState {
			var confirm []vtime.SiteID
			if failed != 0 {
				confirm = []vtime.SiteID{failed}
			}
			return e.join(t, local, nil, confirm)
		}},
}

// sent returns what e sent as Writes or FastWrites, by destination.
func (e *psEnv) sent(t *testing.T, sender psSender) map[vtime.SiteID][]wire.Message {
	t.Helper()
	out := map[vtime.SiteID][]wire.Message{}
	for site, msgs := range e.s.outbox {
		for _, msg := range msgs {
			var origin vtime.SiteID
			switch m := msg.(type) {
			case wire.Write:
				if sender.fast {
					t.Errorf("Write to %s from the fast path", site)
				}
				origin = m.Origin
			case wire.FastWrite:
				if !sender.fast {
					t.Errorf("FastWrite to %s from a guessed sender", site)
				}
				origin = m.Origin
			default:
				continue
			}
			if origin != sender.origin {
				t.Errorf("message to %s carries Origin %s, want %s", site, origin, sender.origin)
			}
			out[site] = append(out[site], msg)
		}
	}
	return out
}

// joinReply returns the last JoinReply e queued for site 3.
func (e *psEnv) joinReply() (r wire.JoinReply) {
	for _, msg := range e.s.outbox[3] {
		if m, ok := msg.(wire.JoinReply); ok {
			r = m
		}
	}
	return r
}

// TestPropagationSites drives the five senders that ship an update to a
// replica graph — a guessed write, a fast-path commit, a join's
// association update, and both sides of a join — through one addressing
// function, and checks the same things in each (DESIGN.md §17):
//
//   - ships: one message per destination site, with the right Origin and
//     NeedsConfirm;
//   - sibling: a sibling replica at this site is applied here, with the
//     right status, and no Write loops back to this site;
//   - failed-primary: a primary site marked failed parks the origin's
//     transaction instead of leaving it waiting (the invitee names it to
//     the joiner);
//   - retains-sent: a WAL-attached origin keeps what it sent for
//     anti-entropy;
//   - local-primary: a primary at this site validates each entry once, and
//     a denial there retries.
func TestPropagationSites(t *testing.T) {
	for _, sender := range psSenders {
		t.Run(sender.name+"/ships", func(t *testing.T) {
			e := newPSEnv(t, false)
			obj, _ := e.replicated(t, sender.kind, false, 2)
			sender.run(t, e, obj, 0)
			got := map[vtime.SiteID]bool{}
			for site, msgs := range e.sent(t, sender) {
				if len(msgs) != 1 {
					t.Errorf("%d messages to %s, want 1", len(msgs), site)
				}
				if w, ok := msgs[0].(wire.Write); ok {
					got[site] = w.NeedsConfirm
				} else {
					got[site] = false
				}
			}
			if !reflect.DeepEqual(got, sender.ships) {
				t.Errorf("NeedsConfirm by destination %v, want %v", got, sender.ships)
			}
		})

		t.Run(sender.name+"/sibling", func(t *testing.T) {
			e := newPSEnv(t, false)
			obj, sib := e.replicated(t, sender.kind, true, 2)
			st := sender.run(t, e, obj, 0)
			want := history.Pending
			if sender.fast {
				want = history.Committed
			}
			if v, ok := sib.hist.Get(st.vt); sender.value && (!ok || v.Status != want) {
				t.Errorf("sibling value at %s: %+v (present %v), want status %v", st.vt, v, ok, want)
			}
			if v, ok := sib.graphHist.Get(st.vt); sender.graph && (!ok || v.Status != want) {
				t.Errorf("sibling graph at %s: %+v (present %v), want status %v", st.vt, v, ok, want)
			}
			if n := e.s.stats.SerialWrites.Value(); n != 0 {
				t.Errorf("%d Writes handled here: one looped back to this site", n)
			}
		})

		if sender.failed != 0 {
			t.Run(sender.name+"/failed-primary", func(t *testing.T) {
				e := newPSEnv(t, false)
				obj, _ := e.replicated(t, sender.kind, false, 2)
				e.s.failed[sender.failed] = true
				st := sender.run(t, e, obj, sender.failed)
				if sender.origin != 1 {
					if r := e.joinReply(); !r.OK || !slices.Equal(r.ConfirmSites, []vtime.SiteID{sender.failed}) {
						t.Errorf("join reply %+v, want ok naming %s to confirm", r, sender.failed)
					}
					return
				}
				if st.status != txnAborted || len(e.s.parked) != 1 {
					t.Errorf("status %v, %d parked retries: want aborted and parked (waiting on %v)",
						st.status, len(e.s.parked), st.waitConfirms.sites)
				}
			})
		}

		if sender.origin == 1 && !sender.fast {
			t.Run(sender.name+"/retains-sent", func(t *testing.T) {
				e := newPSEnv(t, true)
				obj, _ := e.replicated(t, sender.kind, false, 2)
				st := sender.run(t, e, obj, 0)
				if st.status != txnWaiting {
					t.Fatalf("status %v, want waiting", st.status)
				}
				for site, msgs := range e.sent(t, sender) {
					if !reflect.DeepEqual(st.sentMsgs[site], msgs) {
						t.Errorf("retained for %s: %v, want %v", site, st.sentMsgs[site], msgs)
					}
				}
			})
		}

		if sender.entries > 0 {
			t.Run(sender.name+"/local-primary", func(t *testing.T) {
				e := newPSEnv(t, false)
				obj, sib := e.replicated(t, sender.kind, true, 1)
				st := sender.run(t, e, obj, 0)
				validated := 0
				for _, o := range st.reservedObjs {
					if o.replicationRoot() == sib {
						validated++
					}
				}
				if validated != sender.entries {
					t.Errorf("%d entries validated at the primary here, want %d", validated, sender.entries)
				}

				// A denial there retries, here with the primary at the
				// replica the sender applied to.
				e = newPSEnv(t, false)
				obj, _ = e.replicated(t, sender.kind, false, 1)
				obj.res.Reserve(vtime.Interval{Hi: psFar}, psFar)
				obj.graphRes.Reserve(vtime.Interval{Hi: psFar}, psFar)
				st = sender.run(t, e, obj, 0)
				if sender.origin != 1 {
					if r := e.joinReply(); r.OK || !r.Retryable {
						t.Errorf("join reply %+v, want a retryable denial", r)
					}
					return
				}
				select {
				case res := <-st.handle.Done():
					t.Errorf("handle finished %+v, want a retry", res)
				default:
				}
				if n := e.s.stats.Retries.Value(); st.status != txnAborted || n != 1 {
					t.Errorf("status %v, %d retries: want aborted and retried once", st.status, n)
				}
			})
		}
	}
}

// TestDeniedOriginNeverDelegates: an origin whose own primary check
// denies the transaction does not delegate its decision to the one remote
// primary it also writes to. That delegate would validate the rest and
// commit what the origin has already aborted.
func TestDeniedOriginNeverDelegates(t *testing.T) {
	e := newPSEnv(t, false)
	remote, _ := e.replicated(t, KindInt, false, 2)
	local, _ := e.replicated(t, KindInt, false, 1)
	local.res.Reserve(vtime.Interval{Hi: psFar}, psFar)
	st := e.execute(func(tx *Tx) {
		tx.WriteScalar(remote, int64(1))
		tx.WriteScalar(local, int64(1))
	})
	if st.status != txnAborted || st.delegatedTo != 0 {
		t.Errorf("status %v, delegated to %s: want aborted here, not delegated", st.status, st.delegatedTo)
	}
	for _, msg := range e.s.outbox[2] {
		if w, ok := msg.(wire.Write); ok && w.Delegate != nil {
			t.Errorf("Write to s2 delegates the decision: %+v", w)
		}
	}
}

// TestAddressAllocatesNoNodeList gates the routing facts the replication
// graph keeps: addressing one write to its replicas walks the graph in
// place, so with the fanout's buffers already grown it allocates nothing.
func TestAddressAllocatesNoNodeList(t *testing.T) {
	e := newPSEnv(t, false)
	obj, _ := e.replicated(t, KindInt, false, 2)
	st := &txnState{vt: vtime.VT{Time: 20, Site: 1}, origin: 1}
	w := &writeRec{obj: obj, readVT: st.vt, graphVT: psGraph, ops: []wire.Op{wire.OpSet{Value: int64(1)}}}
	var out fanout
	e.s.address(st, w, history.Pending, &out)
	if ms := out.all(); len(ms) != 2 || !ms[0].needsConfirm || ms[1].needsConfirm {
		t.Fatalf("fanout %+v, want sites 2 (confirming) and 3", ms)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ms := out.all()
		for i := range ms {
			ms[i].updates = ms[i].updates[:0]
		}
		e.s.address(st, w, history.Pending, &out)
	})
	if allocs != 0 {
		t.Errorf("address: %v allocations per write, want 0", allocs)
	}
}
