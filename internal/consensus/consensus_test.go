package consensus

import (
	"testing"

	"decaf/internal/vtime"
)

// bus is a deterministic in-memory network of instances: sends append
// to a FIFO queue and drain delivers them in order. Dropping a site
// simulates fail-stop; holding messages simulates delay.
type bus struct {
	t     *testing.T
	insts map[vtime.SiteID]*Instance[string]
	queue []envelope
	dead  map[vtime.SiteID]bool
	steps []stepRecord
}

type envelope struct {
	from, to vtime.SiteID
	msg      Msg[string]
}

type stepRecord struct {
	at   vtime.SiteID
	step Step[string]
}

func newBus(t *testing.T, members ...vtime.SiteID) *bus {
	b := &bus{t: t, insts: make(map[vtime.SiteID]*Instance[string]), dead: make(map[vtime.SiteID]bool)}
	for _, id := range members {
		b.insts[id] = New[string](id, members)
	}
	return b
}

func (b *bus) enqueue(from vtime.SiteID, sends []Send[string]) {
	for _, s := range sends {
		b.queue = append(b.queue, envelope{from: from, to: s.To, msg: s.Msg})
	}
}

// drain delivers queued messages until the queue is empty.
func (b *bus) drain() {
	for len(b.queue) > 0 {
		env := b.queue[0]
		b.queue = b.queue[1:]
		if b.dead[env.to] {
			continue
		}
		inst, ok := b.insts[env.to]
		if !ok {
			continue
		}
		st := inst.Handle(env.from, env.msg)
		b.steps = append(b.steps, stepRecord{at: env.to, step: st})
		b.enqueue(env.to, st.Sends)
		// The embedding layer accepts on the promise-quorum edge.
		if st.PromiseQuorum {
			b.enqueue(env.to, inst.AcceptValue("v@"+env.to.String()))
		}
	}
}

func (b *bus) propose(id vtime.SiteID) {
	b.enqueue(id, b.insts[id].Propose())
}

func (b *bus) decidedValue(id vtime.SiteID) (string, bool) {
	return b.insts[id].Decided()
}

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{}, Ballot{Round: 1, Site: 1}, true},
		{Ballot{Round: 1, Site: 1}, Ballot{Round: 1, Site: 2}, true},
		{Ballot{Round: 1, Site: 3}, Ballot{Round: 2, Site: 1}, true},
		{Ballot{Round: 2, Site: 1}, Ballot{Round: 1, Site: 3}, false},
		{Ballot{Round: 1, Site: 1}, Ballot{Round: 1, Site: 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Ballot{}).IsZero() {
		t.Error("zero ballot should be IsZero")
	}
	if (Ballot{Round: 1, Site: 1}).IsZero() {
		t.Error("real ballot should not be IsZero")
	}
}

func TestQuorumSizes(t *testing.T) {
	for n, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4} {
		members := make([]vtime.SiteID, n)
		for i := range members {
			members[i] = vtime.SiteID(i + 1)
		}
		in := New[string](1, members)
		if got := in.Quorum(); got != want {
			t.Errorf("quorum(%d members) = %d, want %d", n, got, want)
		}
	}
}

func TestMembersSortedDeduped(t *testing.T) {
	in := New[string](1, []vtime.SiteID{3, 1, 2, 3, 1})
	got := in.Members()
	want := []vtime.SiteID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
}

// TestBasicDecision: one proposer, all members alive, everyone learns
// the proposer's own value.
func TestBasicDecision(t *testing.T) {
	b := newBus(t, 1, 2, 3)
	b.propose(2)
	b.drain()
	for _, id := range []vtime.SiteID{1, 2, 3} {
		v, ok := b.decidedValue(id)
		if !ok {
			t.Fatalf("site %v undecided", id)
		}
		if v != "v@s2" {
			t.Fatalf("site %v decided %q, want v@s2", id, v)
		}
	}
}

// TestDecisionWithMinorityDead: a 5-member instance decides with two
// acceptors dead.
func TestDecisionWithMinorityDead(t *testing.T) {
	b := newBus(t, 1, 2, 3, 4, 5)
	b.dead[1] = true
	b.dead[2] = true
	b.propose(3)
	b.drain()
	for _, id := range []vtime.SiteID{3, 4, 5} {
		if _, ok := b.decidedValue(id); !ok {
			t.Fatalf("site %v undecided with quorum alive", id)
		}
	}
}

// TestNoDecisionWithoutQuorum: a majority of dead acceptors blocks any
// decision — the split-brain guard.
func TestNoDecisionWithoutQuorum(t *testing.T) {
	b := newBus(t, 1, 2, 3, 4, 5)
	b.dead[1] = true
	b.dead[2] = true
	b.dead[3] = true
	b.propose(4)
	b.drain()
	for _, id := range []vtime.SiteID{4, 5} {
		if _, ok := b.decidedValue(id); ok {
			t.Fatalf("site %v decided without a quorum", id)
		}
	}
}

// TestTakeoverAdoptsAcceptedValue: proposer 1 gets its value accepted
// by a quorum but dies before Learns propagate beyond one acceptor;
// proposer 3's takeover must adopt 1's value, not its own.
func TestTakeoverAdoptsAcceptedValue(t *testing.T) {
	members := []vtime.SiteID{1, 2, 3}
	insts := map[vtime.SiteID]*Instance[string]{}
	for _, id := range members {
		insts[id] = New[string](id, members)
	}

	// Phase 1: proposer 1 prepares, gathers promises from 1 and 2.
	prepares := insts[1].Propose()
	quorum := false
	for _, s := range prepares {
		if s.To == 3 {
			continue // site 3 never hears from proposer 1
		}
		st := insts[s.To].Handle(1, s.Msg)
		for _, r := range st.Sends {
			if insts[1].Handle(s.To, r.Msg).PromiseQuorum {
				quorum = true
			}
		}
	}
	if !quorum {
		t.Fatal("proposer 1 should hold a promise quorum")
	}

	// Phase 2: only acceptor 2 processes the Accept before proposer 1
	// dies; no Accepted replies are delivered, so nothing is decided.
	accepts := insts[1].AcceptValue("from-1")
	for _, s := range accepts {
		if s.To != 2 {
			continue
		}
		insts[2].Handle(1, s.Msg)
	}

	// Takeover: proposer 3 runs a full round among the survivors
	// {2, 3}. Its promise from 2 carries the accepted value "from-1",
	// which must win over 3's own candidate.
	queue := []envelope{}
	for _, s := range insts[3].Propose() {
		queue = append(queue, envelope{from: 3, to: s.To, msg: s.Msg})
	}
	for len(queue) > 0 {
		env := queue[0]
		queue = queue[1:]
		if env.to == 1 {
			continue // dead
		}
		st := insts[env.to].Handle(env.from, env.msg)
		for _, r := range st.Sends {
			queue = append(queue, envelope{from: env.to, to: r.To, msg: r.Msg})
		}
		if st.PromiseQuorum {
			for _, r := range insts[env.to].AcceptValue("from-3") {
				queue = append(queue, envelope{from: env.to, to: r.To, msg: r.Msg})
			}
		}
	}
	v, ok := insts[3].Decided()
	if !ok {
		t.Fatal("takeover proposer undecided")
	}
	if v != "from-1" {
		t.Fatalf("takeover decided %q, want adopted value from-1", v)
	}
	v2, ok2 := insts[2].Decided()
	if !ok2 || v2 != "from-1" {
		t.Fatalf("acceptor 2 decided (%q, %v), want (from-1, true)", v2, ok2)
	}
}

// TestPreemption: a proposer whose ballot is below an acceptor's
// promise gets refused and reports Preempted; its next Propose picks a
// higher round.
func TestPreemption(t *testing.T) {
	members := []vtime.SiteID{1, 2, 3}
	a := New[string](1, members)
	bst := New[string](2, members)
	acc := New[string](3, members)

	// Proposer 2 claims round 1 at acceptor 3.
	for _, s := range bst.Propose() {
		if s.To == 3 {
			acc.Handle(2, s.Msg)
		}
	}
	// Proposer 1 also claims round 1 (it has observed nothing), and
	// acceptor 3 refuses: 1.S1 < 1.S2.
	var refusal Msg[string]
	for _, s := range a.Propose() {
		if s.To == 3 {
			st := acc.Handle(1, s.Msg)
			refusal = st.Sends[0].Msg
		}
	}
	if refusal.OK {
		t.Fatal("acceptor should refuse the lower ballot")
	}
	st := a.Handle(3, refusal)
	if !st.Preempted {
		t.Fatal("refused promise should report Preempted")
	}
	if a.Proposing() {
		t.Fatal("preempted attempt should be abandoned")
	}
	// The refusal carried the promised ballot, so the retry jumps past
	// round 1.
	sends := a.Propose()
	if got := a.Ballot(); got.Round < 2 {
		t.Fatalf("retry ballot %v, want round >= 2", got)
	}
	if len(sends) != len(members) {
		t.Fatalf("retry prepares = %d, want %d", len(sends), len(members))
	}
}

// TestDuplicateDelivery: re-delivered promises and accepts never
// double-count toward quorums, and duplicate Learns fire Decided once.
func TestDuplicateDelivery(t *testing.T) {
	members := []vtime.SiteID{1, 2, 3, 4, 5}
	p := New[string](1, members)
	p.Propose()
	promise := Msg[string]{Kind: Promise, Ballot: p.Ballot(), OK: true}
	p.Handle(2, promise)
	p.Handle(2, promise) // duplicate
	st := p.Handle(3, promise)
	if st.PromiseQuorum {
		t.Fatal("2 distinct promisers + self-less dupes should not be a quorum of 3")
	}
	if !p.Handle(1, promise).PromiseQuorum {
		t.Fatal("3 distinct promisers should be a quorum")
	}
	p.AcceptValue("v")
	acc := Msg[string]{Kind: Accepted, Ballot: p.Ballot(), OK: true}
	p.Handle(2, acc)
	p.Handle(2, acc) // duplicate
	p.Handle(3, acc)
	st = p.Handle(1, acc)
	if !st.Decided {
		t.Fatal("3 distinct accepts should decide")
	}
	learn := Msg[string]{Kind: Learn, Ballot: p.Ballot(), Value: "v"}
	if st := p.Handle(4, learn); st.Decided {
		t.Fatal("duplicate Learn re-fired Decided")
	}
}

// TestProposeAfterDecisionIsNoop: once decided, Propose returns nil and
// the decision is stable.
func TestProposeAfterDecisionIsNoop(t *testing.T) {
	b := newBus(t, 1, 2, 3)
	b.propose(1)
	b.drain()
	v0, _ := b.decidedValue(1)
	if sends := b.insts[1].Propose(); sends != nil {
		t.Fatal("Propose after decision should return nil")
	}
	if v, _ := b.decidedValue(1); v != v0 {
		t.Fatal("decision changed after late Propose")
	}
}

// TestDuelingProposersConverge: two proposers alternate preemption but
// each retry jumps above all observed rounds, and with the bus's
// FIFO delivery one of them completes; all members agree.
func TestDuelingProposersConverge(t *testing.T) {
	b := newBus(t, 1, 2, 3, 4, 5)
	b.propose(1)
	b.propose(2)
	b.drain()
	// Retry any preempted proposer once; FIFO drain guarantees the
	// higher ballot finishes before a new dueling round starts.
	for _, id := range []vtime.SiteID{1, 2} {
		if _, ok := b.decidedValue(id); !ok && !b.insts[id].Proposing() {
			b.propose(id)
			b.drain()
		}
	}
	var want string
	for _, id := range []vtime.SiteID{1, 2, 3, 4, 5} {
		v, ok := b.decidedValue(id)
		if !ok {
			t.Fatalf("site %v undecided after dueling proposers", id)
		}
		if want == "" {
			want = v
		}
		if v != want {
			t.Fatalf("site %v decided %q, others %q", id, v, want)
		}
	}
}

// TestNonMemberPromisesIgnored: promises from sites outside the member
// set never count toward a quorum.
func TestNonMemberPromisesIgnored(t *testing.T) {
	p := New[string](1, []vtime.SiteID{1, 2, 3})
	p.Propose()
	promise := Msg[string]{Kind: Promise, Ballot: p.Ballot(), OK: true}
	for _, from := range []vtime.SiteID{9, 10, 11} {
		if p.Handle(from, promise).PromiseQuorum {
			t.Fatal("non-member promises counted toward quorum")
		}
	}
	if p.AcceptValue("v") != nil {
		t.Fatal("AcceptValue went to phase 2 on non-member promises")
	}
}
