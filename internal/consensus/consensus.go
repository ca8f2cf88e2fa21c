// Package consensus is a small single-decree Paxos-style kernel used
// for membership/graph-repair decisions (DESIGN.md §14). It is a pure
// message-in/message-out state machine: no goroutines, no timers, no
// clocks, no I/O. The embedding layer (internal/engine) owns delivery,
// retry/takeover timers (routed through engine.Scheduler so the
// deterministic simulator can explore them), and durability.
//
// One Instance decides one value among a fixed member set — for graph
// repair, the members are the sites of the pre-failure graphs minus the
// failed site, so every survivor computes the same member set and the
// same quorum regardless of how its local failure suspicions diverge.
// Ballots are (round, site) pairs: any member can preempt a stalled
// proposer by proposing at a higher round, and the site ID breaks ties
// deterministically.
package consensus

import (
	"fmt"

	"decaf/internal/vtime"
)

// Ballot orders proposal attempts. The zero Ballot is "no ballot" and
// compares below every real one (real ballots have Round >= 1).
type Ballot struct {
	Round uint64
	Site  vtime.SiteID
}

// Less reports whether b orders strictly before o.
func (b Ballot) Less(o Ballot) bool {
	if b.Round != o.Round {
		return b.Round < o.Round
	}
	return b.Site < o.Site
}

// IsZero reports whether b is the "no ballot" sentinel.
func (b Ballot) IsZero() bool { return b.Round == 0 && b.Site == 0 }

func (b Ballot) String() string { return fmt.Sprintf("%d.S%d", b.Round, b.Site) }

// Kind enumerates the five kernel message types.
type Kind uint8

const (
	// Prepare is phase 1a: a proposer claims a ballot.
	Prepare Kind = 1 + iota
	// Promise is phase 1b: an acceptor grants (OK) or refuses a
	// Prepare; a grant carries any previously accepted value.
	Promise
	// Accept is phase 2a: the proposer asks acceptors to accept a
	// value under its ballot.
	Accept
	// Accepted is phase 2b: an acceptor acknowledges (OK) or refuses
	// an Accept.
	Accepted
	// Learn broadcasts a decided value to all members.
	Learn
)

func (k Kind) String() string {
	switch k {
	case Prepare:
		return "prepare"
	case Promise:
		return "promise"
	case Accept:
		return "accept"
	case Accepted:
		return "accepted"
	case Learn:
		return "learn"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Msg is one kernel message. Which fields are meaningful depends on
// Kind: Ballot always; OK and Promised on Promise/Accepted (a refusal
// reports the ballot the acceptor is promised to, so the proposer
// learns how far to jump); HasAccepted/AcceptedBallot/Value on a
// granted Promise; Value on Accept and Learn.
type Msg[V any] struct {
	Kind           Kind
	Ballot         Ballot
	OK             bool
	Promised       Ballot
	HasAccepted    bool
	AcceptedBallot Ballot
	Value          V
}

// Send pairs a kernel message with its destination. The embedding
// layer delivers it (including To == self, which it may loop back).
type Send[V any] struct {
	To  vtime.SiteID
	Msg Msg[V]
}

// Step is what Handle tells the embedding layer beyond the messages to
// send. At most one of the flags fires per call.
type Step[V any] struct {
	Sends []Send[V]

	// PromiseQuorum: this call completed a phase-1 quorum for the
	// local proposer's current ballot; the embedder calls AcceptValue.
	// Later promises for the same attempt do not re-fire it.
	PromiseQuorum bool

	// Preempted: the local proposer's current attempt was refused by
	// an acceptor promised to a higher ballot. The attempt is
	// abandoned; the embedder may re-Propose (typically after a
	// backoff).
	Preempted bool

	// Decided: this call decided the instance (first time only).
	// Decided() now returns the value. Duplicate Learns and late
	// phase-2 quorums do not re-fire this flag.
	Decided bool
}

// Instance is one single-decree consensus instance. All methods must be
// called from a single goroutine (in the engine: the site event loop).
type Instance[V any] struct {
	self    vtime.SiteID
	members []vtime.SiteID // sorted, deduped

	// Acceptor state.
	promised       Ballot
	hasAccepted    bool
	acceptedBallot Ballot
	acceptedValue  V

	// Proposer state (phase 0 = idle, 1 = preparing, 2 = accepting).
	phase        int
	ballot       Ballot
	promises     map[vtime.SiteID]bool
	haveAdopted  bool
	adoptedFrom  Ballot
	adoptedValue V
	accepts      map[vtime.SiteID]bool
	proposal     V
	maxRound     uint64 // highest round observed anywhere

	// Learner state.
	decided  bool
	decision V
}

// New creates an instance for self among members. Members are copied,
// sorted, and deduped; self need not be a member (a non-member can
// still learn), but only members count toward quorums.
func New[V any](self vtime.SiteID, members []vtime.SiteID) *Instance[V] {
	ms := make([]vtime.SiteID, 0, len(members))
	seen := make(map[vtime.SiteID]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			ms = append(ms, m)
		}
	}
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j] < ms[j-1]; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	return &Instance[V]{self: self, members: ms}
}

// Members returns the member set (sorted; callers must not mutate).
func (in *Instance[V]) Members() []vtime.SiteID { return in.members }

// Quorum returns the majority threshold: floor(len(members)/2)+1.
func (in *Instance[V]) Quorum() int { return len(in.members)/2 + 1 }

// Decided returns the decided value, if any.
func (in *Instance[V]) Decided() (V, bool) { return in.decision, in.decided }

// Proposing reports whether a local proposal attempt is in flight.
func (in *Instance[V]) Proposing() bool { return in.phase != 0 }

// Ballot returns the local proposer's current ballot (zero if it has
// never proposed).
func (in *Instance[V]) Ballot() Ballot { return in.ballot }

func (in *Instance[V]) isMember(id vtime.SiteID) bool {
	for _, m := range in.members {
		if m == id {
			return true
		}
	}
	return false
}

func (in *Instance[V]) observe(b Ballot) {
	if b.Round > in.maxRound {
		in.maxRound = b.Round
	}
}

func (in *Instance[V]) broadcast(m Msg[V]) []Send[V] {
	sends := make([]Send[V], 0, len(in.members))
	for _, to := range in.members {
		sends = append(sends, Send[V]{To: to, Msg: m})
	}
	return sends
}

// Propose starts (or restarts) a proposal attempt at a ballot above
// every ballot this instance has observed, and returns the Prepares to
// send to all members (including self — the embedder loops those back
// through Handle like any other message). Proposing after a decision
// returns nil.
func (in *Instance[V]) Propose() []Send[V] {
	if in.decided {
		return nil
	}
	in.ballot = Ballot{Round: in.maxRound + 1, Site: in.self}
	in.observe(in.ballot)
	in.phase = 1
	in.promises = make(map[vtime.SiteID]bool)
	in.haveAdopted = false
	in.accepts = nil
	return in.broadcast(Msg[V]{Kind: Prepare, Ballot: in.ballot})
}

// AcceptValue moves the current attempt to phase 2. The caller's value
// v is used only if no promise carried a previously accepted value;
// otherwise the value accepted under the highest ballot is adopted
// (the Paxos safety rule). Returns nil unless the attempt holds a
// promise quorum in phase 1.
func (in *Instance[V]) AcceptValue(v V) []Send[V] {
	if in.decided || in.phase != 1 || len(in.promises) < in.Quorum() {
		return nil
	}
	if in.haveAdopted {
		in.proposal = in.adoptedValue
	} else {
		in.proposal = v
	}
	in.phase = 2
	in.accepts = make(map[vtime.SiteID]bool)
	return in.broadcast(Msg[V]{Kind: Accept, Ballot: in.ballot, Value: in.proposal})
}

// Handle processes one inbound kernel message from member `from` and
// returns the resulting sends and state transitions.
func (in *Instance[V]) Handle(from vtime.SiteID, m Msg[V]) Step[V] {
	in.observe(m.Ballot)
	in.observe(m.Promised)
	var st Step[V]
	switch m.Kind {
	case Prepare:
		reply := Msg[V]{Kind: Promise, Ballot: m.Ballot}
		if in.promised.Less(m.Ballot) || in.promised == m.Ballot {
			in.promised = m.Ballot
			reply.OK = true
			reply.HasAccepted = in.hasAccepted
			reply.AcceptedBallot = in.acceptedBallot
			reply.Value = in.acceptedValue
		} else {
			reply.Promised = in.promised
		}
		st.Sends = []Send[V]{{To: from, Msg: reply}}

	case Promise:
		if in.phase != 1 || m.Ballot != in.ballot {
			break // stale reply for an abandoned attempt
		}
		if !m.OK {
			in.phase = 0
			st.Preempted = true
			break
		}
		if !in.isMember(from) || in.promises[from] {
			break
		}
		in.promises[from] = true
		if m.HasAccepted && (!in.haveAdopted || in.adoptedFrom.Less(m.AcceptedBallot)) {
			in.haveAdopted = true
			in.adoptedFrom = m.AcceptedBallot
			in.adoptedValue = m.Value
		}
		if len(in.promises) == in.Quorum() {
			st.PromiseQuorum = true
		}

	case Accept:
		reply := Msg[V]{Kind: Accepted, Ballot: m.Ballot}
		if in.promised.Less(m.Ballot) || in.promised == m.Ballot {
			in.promised = m.Ballot
			in.hasAccepted = true
			in.acceptedBallot = m.Ballot
			in.acceptedValue = m.Value
			reply.OK = true
		} else {
			reply.Promised = in.promised
		}
		st.Sends = []Send[V]{{To: from, Msg: reply}}

	case Accepted:
		if in.phase != 2 || m.Ballot != in.ballot {
			break
		}
		if !m.OK {
			in.phase = 0
			st.Preempted = true
			break
		}
		if !in.isMember(from) || in.accepts[from] {
			break
		}
		in.accepts[from] = true
		if len(in.accepts) == in.Quorum() && !in.decided {
			in.decided = true
			in.decision = in.proposal
			in.phase = 0
			st.Decided = true
			st.Sends = in.broadcast(Msg[V]{Kind: Learn, Ballot: m.Ballot, Value: in.decision})
		}

	case Learn:
		if !in.decided {
			in.decided = true
			in.decision = m.Value
			in.phase = 0
			st.Decided = true
		}
	}
	return st
}
