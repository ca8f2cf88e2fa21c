// Package wire defines the message protocol spoken between DECAF sites:
// update propagation (WRITE), guess confirmation (CONFIRM-READ / CONFIRM),
// summary transaction outcomes (COMMIT / ABORT), the collaboration-join
// protocol, and the failure-handling messages of paper §3.4.
//
// Message and Op are sealed interfaces and dynamically typed payload
// values come from a closed set (nil, int64, float64, string, bool,
// []ChildImage, []Relationship), so the hand-written binary codec in
// codec.go covers everything a site can send; the in-memory simulated
// network passes the same values by reference.
package wire

import (
	"fmt"

	"decaf/internal/consensus"
	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
)

// Message is implemented by every DECAF protocol message.
type Message interface {
	isMessage()
	// Kind returns a short human-readable message kind for logs.
	Kind() string
}

// ---------------------------------------------------------------------------
// Operations: the state-update payloads carried by WRITE messages.
// ---------------------------------------------------------------------------

// Op is a state-update operation applied to a model object. For scalar
// objects the final value is distributed; for composite objects the change
// is distributed as an incremental operation (paper §3.1 footnote).
type Op interface {
	isOp()
	// Describe returns a short human-readable description for logs.
	Describe() string
}

// OpSet replaces a scalar object's value.
type OpSet struct {
	Value any
}

func (OpSet) isOp()              {}
func (o OpSet) Describe() string { return fmt.Sprintf("set(%v)", o.Value) }

// OpAdd increments a numeric scalar object by Delta (int64 or float64).
// Unlike OpSet it commutes with every other OpAdd, so transactions built
// solely from adds qualify for the commutative fast path: they commit at
// their VT stamp without a reservation and merge deterministically at every
// replica regardless of arrival order.
type OpAdd struct {
	Delta any
}

func (OpAdd) isOp()              {}
func (o OpAdd) Describe() string { return fmt.Sprintf("add(%v)", o.Delta) }

// ChildKind enumerates the kinds of model objects that can be embedded in
// composites or created standalone.
type ChildKind int

// Model-object kinds.
const (
	KindInt ChildKind = iota + 1
	KindFloat
	KindString
	KindBool
	KindList
	KindTuple
	KindAssociation
)

// String implements fmt.Stringer.
func (k ChildKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindList:
		return "list"
	case KindTuple:
		return "tuple"
	case KindAssociation:
		return "association"
	default:
		return fmt.Sprintf("ChildKind(%d)", int(k))
	}
}

// ChildDecl describes a child object being embedded into a composite, so
// that remote replicas can instantiate an equivalent replica child.
type ChildDecl struct {
	Kind  ChildKind
	Value any // initial scalar value; nil for composites
}

// OpListInsert inserts a new child into a list object. Tag is the unique
// element tag (the inserting transaction's VT plus an ordinal for multiple
// inserts by one transaction).
type OpListInsert struct {
	Tag   ElemTag
	Child ChildDecl
	// After identifies the element the insert follows (zero tag = list
	// head): the origin resolves its index to After, and every replica
	// positions the insert by After and tag order.
	After ElemTag
}

func (OpListInsert) isOp() {}

// Describe implements Op.
func (o OpListInsert) Describe() string {
	return fmt.Sprintf("list-insert(%v after %v)", o.Tag, o.After)
}

// OpListInsertAfter inserts a new child into a list at a stable position:
// directly after the element tagged After (zero tag = list head), with ties
// between concurrent same-position inserts broken by Tag order (RGA). It
// carries no index, so it commutes with every concurrent structural update
// and qualifies for the commutative fast path. This is the sanctioned op
// for concurrent editing; index-based OpListInsert resolves its index at
// the origin and can interleave surprisingly under concurrency.
type OpListInsertAfter struct {
	Tag   ElemTag
	Child ChildDecl
	After ElemTag
}

func (OpListInsertAfter) isOp() {}

// Describe implements Op.
func (o OpListInsertAfter) Describe() string {
	return fmt.Sprintf("list-insert-after(%v after %v)", o.Tag, o.After)
}

// OpListRemove removes the element with the given tag from a list.
type OpListRemove struct {
	Tag ElemTag
}

func (OpListRemove) isOp() {}

// Describe implements Op.
func (o OpListRemove) Describe() string { return fmt.Sprintf("list-remove(%v)", o.Tag) }

// OpTupleSet embeds (or replaces) the child under Key in a tuple object.
// The setting transaction's VT pins the new entry's slot.
type OpTupleSet struct {
	Key   string
	Child ChildDecl
}

func (OpTupleSet) isOp() {}

// Describe implements Op.
func (o OpTupleSet) Describe() string { return fmt.Sprintf("tuple-set(%s)", o.Key) }

// OpTupleRemove removes one specific child under Key from a tuple
// object. Of is the pin of the entry being removed (the VT of the set
// that created it), so concurrent re-sets of the same key are not
// clobbered by a remove that targeted their predecessor (add-wins), and
// all replicas remove the same entry.
type OpTupleRemove struct {
	Key string
	Of  vtime.VT
}

func (OpTupleRemove) isOp() {}

// Describe implements Op.
func (o OpTupleRemove) Describe() string { return fmt.Sprintf("tuple-remove(%s)", o.Key) }

// OpGraph replaces a model object's replication graph (join, leave, site
// failure repair). Graph updates flow through the same concurrency-control
// machinery as value updates, validated against the graph's own
// reservation table at the graph's primary.
type OpGraph struct {
	Graph repgraph.Wire
}

func (OpGraph) isOp() {}

// Describe implements Op.
func (o OpGraph) Describe() string { return fmt.Sprintf("graph(%d nodes)", len(o.Graph.Nodes)) }

// OpAssoc updates an association object's value: the set of replica
// relationships bundled for an application purpose (paper §2.1, §2.6).
type OpAssoc struct {
	Relationships []Relationship
}

func (OpAssoc) isOp() {}

// Describe implements Op.
func (o OpAssoc) Describe() string { return fmt.Sprintf("assoc(%d rels)", len(o.Relationships)) }

// OpAssocInsert adds (or replaces, add-wins by VT order) a single named
// relationship in an association object. Inserts under distinct names
// commute, and concurrent inserts under the same name converge to the
// merge-order winner, so this op qualifies for the commutative fast path —
// unlike OpAssoc, which replaces the whole relationship set.
type OpAssocInsert struct {
	Rel Relationship
}

func (OpAssocInsert) isOp() {}

// Describe implements Op.
func (o OpAssocInsert) Describe() string { return fmt.Sprintf("assoc-insert(%s)", o.Rel.Name) }

// Relationship names one replica relationship within an association: the
// set of member objects with their sites.
type Relationship struct {
	Name    string
	Members []Member
}

// Member is one model object participating in a replica relationship.
type Member struct {
	Site vtime.SiteID
	Obj  ids.ObjectID
	// Desc is the human-readable object description published in the
	// association (paper §2.1: "together with their sites and object
	// descriptions").
	Desc string
}

// ---------------------------------------------------------------------------
// Paths for indirect propagation through composites (paper §3.2).
// ---------------------------------------------------------------------------

// ElemTag uniquely identifies a list element: the VT of the inserting
// transaction plus an ordinal distinguishing multiple inserts by the same
// transaction into the same list. This is the paper's "VT used as a tag to
// the index", making path names robust against concurrent reordering.
type ElemTag struct {
	VT vtime.VT
	N  uint32
}

// IsZero reports whether the tag is the zero tag (used for "list head").
func (t ElemTag) IsZero() bool { return t == ElemTag{} }

// String implements fmt.Stringer.
func (t ElemTag) String() string { return fmt.Sprintf("%s#%d", t.VT, t.N) }

// PathElem is one step of a composite path: either a tagged list element
// or a tuple key.
type PathElem struct {
	// IsKey selects between tuple (key) and list (tag) addressing.
	IsKey bool
	Key   string
	// Tag names a list element; for a tuple key, Tag.VT pins the entry's
	// insert VT (a key can be set again). The codec rejects a key without.
	Tag ElemTag
}

// String implements fmt.Stringer.
func (p PathElem) String() string {
	if p.IsKey {
		return "[" + p.Key + "]"
	}
	return "[" + p.Tag.String() + "]"
}

// Path addresses an object embedded within a composite, from the root down.
type Path []PathElem

// String implements fmt.Stringer.
func (p Path) String() string {
	s := ""
	for _, e := range p {
		s += e.String()
	}
	return s
}

// ---------------------------------------------------------------------------
// Transaction propagation messages (paper §3.1).
// ---------------------------------------------------------------------------

// Update is one object modification carried by a Write message. Target is
// the destination site's replica object; for indirect propagation Target
// is the composite root there and Path walks down to the modified child.
type Update struct {
	Target ids.ObjectID
	Path   Path // empty for direct updates to Target itself
	// ReadVT is tR: the VT of the value the transaction read before
	// writing (equal to the transaction VT for blind writes).
	ReadVT vtime.VT
	// GraphVT is tG: the VT at which the object's replication graph was
	// last changed, as known to the originating site.
	GraphVT vtime.VT
	Op      Op
}

// ReadCheck asks a primary copy to validate an RL guess: that the interval
// (ReadVT, tT] was write-free for Target (and (GraphVT, tT] free of graph
// changes).
type ReadCheck struct {
	Target  ids.ObjectID
	Path    Path
	ReadVT  vtime.VT
	GraphVT vtime.VT
	// CommittedOnly restricts the check to committed versions — the
	// pessimistic-view form of the RL guess (paper §4.2). The endpoint
	// tT itself is excluded from the check for committed-only checks.
	CommittedOnly bool
	// NoReserve answers the check without reserving the interval:
	// optimistic view snapshots tolerate stragglers (a superseding
	// notification repairs them, §4.1) and must not abort writers.
	NoReserve bool
}

// Write propagates a transaction's modifications to a replica site. The
// primary site additionally performs the RL and NC guess checks and
// responds with a Confirm (paper §3.1). Non-primary sites simply apply.
type Write struct {
	TxnVT   vtime.VT
	Origin  vtime.SiteID
	Updates []Update
	// Floor is the sender's GC floor when it built the message: no
	// validation request it sends later is stamped below it, so the
	// primaries it writes to may prune below it (DESIGN.md §6). Zero
	// carries no information (a relayed sync record).
	Floor vtime.VT
	// Checks carries RL read-checks for objects this site is primary
	// for; piggybacked on the Write when the site receives updates too.
	Checks []ReadCheck
	// NeedsConfirm is set when the destination is a primary site that
	// must validate and reply with Confirm.
	NeedsConfirm bool
	// Delegate, when non-nil, transfers commit responsibility to the
	// destination, which must be the single remote primary site (paper
	// §3.1 optimization). It carries the identifiers of all sites
	// affected by the transaction, so the delegate can send the summary
	// outcome everywhere: every involved site except the delegate itself,
	// the origin included, so a delegation is never empty.
	Delegate []vtime.SiteID
}

func (Write) isMessage() {}

// Kind implements Message.
func (Write) Kind() string { return "WRITE" }

// FastWrite propagates a commutatively-committed transaction: every update
// is a provably commutative op, so the transaction committed locally at its
// VT stamp without guesses, reservations, or a confirm exchange. Receivers
// apply the updates as already-committed via deterministic merge — there is
// no NeedsConfirm, no Checks, and no Outcome follow-up.
type FastWrite struct {
	TxnVT   vtime.VT
	Origin  vtime.SiteID
	Updates []Update
	// Floor is the sender's GC floor, as in Write.
	Floor vtime.VT
}

func (FastWrite) isMessage() {}

// Kind implements Message.
func (FastWrite) Kind() string { return "FAST-WRITE" }

// SyncFloor names the highest transaction time a site holds, contiguously,
// from a given origin. "Contiguous" is the load-bearing word: a site may
// have received later updates from that origin directly, but it only
// advances the floor when an anti-entropy session proves there is no gap
// below them (DESIGN.md §13).
type SyncFloor struct {
	Site vtime.SiteID
	Time uint64
}

// SyncRequest opens a pairwise anti-entropy session (DESIGN.md §13): the
// requester advertises its version floors and asks the peer for every
// logged update above them.
type SyncRequest struct {
	From   vtime.SiteID
	ReqID  uint64
	Floors []SyncFloor
}

func (SyncRequest) isMessage() {}

// Kind implements Message.
func (SyncRequest) Kind() string { return "SYNC-REQUEST" }

// SyncUpdates ships the missing updates of an anti-entropy session:
// Write, FastWrite and Outcome messages (already remapped into the
// receiver's object-ID namespace), in shipping order — outcomes first, then
// data records in log order. The codec refuses any other message type as a
// record. Floors are the sender's own floors so the
// receiver can reply with the reverse leg when WantReply is set.
type SyncUpdates struct {
	From      vtime.SiteID
	ReqID     uint64
	WantReply bool
	Floors    []SyncFloor
	Records   []Message
}

func (SyncUpdates) isMessage() {}

// Kind implements Message.
func (SyncUpdates) Kind() string { return "SYNC-UPDATES" }

// ConfirmRead asks a primary site to validate RL guesses for objects that
// were read but not written — by a transaction (paper §3.1) or by a view
// snapshot (paper §4). ReqID routes the Confirm back to the right waiter.
type ConfirmRead struct {
	TxnVT  vtime.VT
	Origin vtime.SiteID
	ReqID  uint64
	Checks []ReadCheck
	// Floor is the sender's GC floor, as in Write.
	Floor vtime.VT
}

func (ConfirmRead) isMessage() {}

// Kind implements Message.
func (ConfirmRead) Kind() string { return "CONFIRM-READ" }

// Confirm is a primary site's verdict on the guesses in a Write or
// ConfirmRead.
type Confirm struct {
	TxnVT vtime.VT
	ReqID uint64 // echoes ConfirmRead.ReqID; 0 for Write confirmations
	From  vtime.SiteID
	OK    bool
	// Transient marks a denial that may succeed after in-flight
	// transactions settle (a pending version in a committed-only check
	// interval); the requester should retry rather than abort.
	Transient bool
	Reason    string
}

func (Confirm) isMessage() {}

// Kind implements Message.
func (Confirm) Kind() string { return "CONFIRM" }

// Outcome is the summary commit/abort for a transaction, broadcast by the
// originating site (or its delegate) to every involved site.
type Outcome struct {
	TxnVT     vtime.VT
	Committed bool
}

func (Outcome) isMessage() {}

// Kind implements Message.
func (o Outcome) Kind() string {
	if o.Committed {
		return "COMMIT"
	}
	return "ABORT"
}

// ---------------------------------------------------------------------------
// Collaboration establishment (paper §3.3).
// ---------------------------------------------------------------------------

// JoinRequest is A's remote call to B: "object AObj (graph GraphA) wants
// to join BObj's replica relationship".
type JoinRequest struct {
	TxnVT  vtime.VT
	Origin vtime.SiteID
	ReqID  uint64
	AObj   ids.ObjectID
	BObj   ids.ObjectID
	GraphA repgraph.Wire
}

func (JoinRequest) isMessage() {}

// Kind implements Message.
func (JoinRequest) Kind() string { return "JOIN-REQUEST" }

// JoinReply returns B's value and replication graph(s) to A. If B's
// current graph value is uncommitted, PendingGraphTxn carries the
// transaction A must additionally wait for (an RC guess).
type JoinReply struct {
	TxnVT  vtime.VT
	ReqID  uint64
	From   vtime.SiteID
	OK     bool
	Reason string
	// Retryable marks a denial caused by a transient concurrency-control
	// conflict; the joiner re-executes with a fresh virtual time, like
	// any other conflicted transaction.
	Retryable bool
	BObj      ids.ObjectID
	// BValue is B's current value, shipped so A's replica starts
	// mirrored. For composites this is a structured snapshot.
	BValue any
	GraphB repgraph.Wire
	// PendingGraphTxn, when nonzero, is the uncommitted transaction that
	// wrote gB; A must wait for it to commit (RC guess).
	PendingGraphTxn vtime.VT
	// ConfirmSites lists primary sites whose confirmations B requested on
	// A's behalf; A must wait for a Confirm from each before committing.
	ConfirmSites []vtime.SiteID
}

func (JoinReply) isMessage() {}

// Kind implements Message.
func (JoinReply) Kind() string { return "JOIN-REPLY" }

// ---------------------------------------------------------------------------
// Direct propagation for embedded objects (paper §3.2.2).
// ---------------------------------------------------------------------------

// PromoteQuery asks a site hosting a replica of a composite to reveal the
// object ID of the child at Path below Target. Switching an embedded
// object to direct propagation requires a propagation graph over the
// child's counterparts at every replica site, whose IDs are local to each
// site (paper §3.2.2: "that node switches to direct propagation, and a
// propagation graph is sent to all replicas").
type PromoteQuery struct {
	ReqID  uint64
	Origin vtime.SiteID
	Target ids.ObjectID
	Path   Path
}

func (PromoteQuery) isMessage() {}

// Kind implements Message.
func (PromoteQuery) Kind() string { return "PROMOTE-QUERY" }

// PromoteReply carries the counterpart child's identity.
type PromoteReply struct {
	ReqID uint64
	From  vtime.SiteID
	OK    bool
	Child ids.ObjectID
}

func (PromoteReply) isMessage() {}

// Kind implements Message.
func (PromoteReply) Kind() string { return "PROMOTE-REPLY" }

// ---------------------------------------------------------------------------
// Failure handling (paper §3.4).
// ---------------------------------------------------------------------------

// CommitQuery asks whether the receiver knows the outcome of a transaction
// whose originating site failed before broadcasting a summary outcome.
type CommitQuery struct {
	TxnVT vtime.VT
	From  vtime.SiteID
}

func (CommitQuery) isMessage() {}

// Kind implements Message.
func (CommitQuery) Kind() string { return "COMMIT-QUERY" }

// CommitQueryReply reports what the receiver knows about the transaction.
type CommitQueryReply struct {
	TxnVT vtime.VT
	From  vtime.SiteID
	// Known is true when the receiver saw a summary outcome for TxnVT.
	Known     bool
	Committed bool
}

func (CommitQueryReply) isMessage() {}

// Kind implements Message.
func (CommitQueryReply) Kind() string { return "COMMIT-QUERY-REPLY" }

// ---------------------------------------------------------------------------
// Consensus-backed graph repair (DESIGN.md §14): a single-decree
// consensus (internal/consensus) per failed site. Any survivor can take
// over a stalled repair with a higher ballot, and a quorum of the
// pre-failure membership must accept before a repair commits.
// ---------------------------------------------------------------------------

// RepairValue is the value a repair instance decides: the failed site
// and the virtual time at which the graphs it was primary of drop it.
// One instance exists per failed site; the decided value is identical at
// every survivor, so parked retries resume against the same repaired
// graphs everywhere. It settles no transactions: the failed site's
// in-flight transactions are decided by commit queries (paper §3.4).
type RepairValue struct {
	FailedSite vtime.SiteID
	GraphVT    vtime.VT
}

// RepairPrepare is consensus phase 1a: a survivor claims Ballot for the
// repair of FailedSite. Members carries the instance's member set (the
// pre-failure graph membership minus the failed site) so receivers that
// have not yet noticed the failure can instantiate an identical
// acceptor.
type RepairPrepare struct {
	FailedSite vtime.SiteID
	From       vtime.SiteID
	Ballot     consensus.Ballot
	Members    []vtime.SiteID
}

func (RepairPrepare) isMessage() {}

// Kind implements Message.
func (RepairPrepare) Kind() string { return "REPAIR-PREPARE" }

// RepairPromise is consensus phase 1b. A grant (OK) carries any value
// the acceptor already accepted under an earlier ballot; a refusal
// reports Promised, the ballot the acceptor is bound to.
type RepairPromise struct {
	FailedSite     vtime.SiteID
	From           vtime.SiteID
	Ballot         consensus.Ballot
	OK             bool
	Promised       consensus.Ballot
	HasAccepted    bool
	AcceptedBallot consensus.Ballot
	Accepted       RepairValue
}

func (RepairPromise) isMessage() {}

// Kind implements Message.
func (RepairPromise) Kind() string { return "REPAIR-PROMISE" }

// RepairAccept is consensus phase 2a: the proposer asks the members to
// accept Value under Ballot.
type RepairAccept struct {
	FailedSite vtime.SiteID
	From       vtime.SiteID
	Ballot     consensus.Ballot
	Value      RepairValue
	Members    []vtime.SiteID
}

func (RepairAccept) isMessage() {}

// Kind implements Message.
func (RepairAccept) Kind() string { return "REPAIR-ACCEPT" }

// RepairAccepted is consensus phase 2b: the acceptor's verdict on a
// RepairAccept.
type RepairAccepted struct {
	FailedSite vtime.SiteID
	From       vtime.SiteID
	Ballot     consensus.Ballot
	OK         bool
	Promised   consensus.Ballot
}

func (RepairAccepted) isMessage() {}

// Kind implements Message.
func (RepairAccepted) Kind() string { return "REPAIR-ACCEPTED" }

// RepairLearn broadcasts a decided repair. It is also WAL-logged and
// replayed on recovery, and answers stale consensus traffic for repairs
// that already decided.
type RepairLearn struct {
	FailedSite vtime.SiteID
	From       vtime.SiteID
	Ballot     consensus.Ballot
	Value      RepairValue
}

func (RepairLearn) isMessage() {}

// Kind implements Message.
func (RepairLearn) Kind() string { return "REPAIR-LEARN" }

// ChildImage is one child slot of a composite in a state image, live or
// removed: the structure a join reply and the join's propagated value
// write ship to a new member, and a checkpoint persists (DESIGN.md §4).
// A composite's image is the []ChildImage of its slots in slot order.
// Removed slots stay in the image because an insert may anchor on a
// removed element.
type ChildImage struct {
	// Slot names the child in its parent: a list element's tag, or a
	// tuple key pinned with its insert VT.
	Slot     PathElem
	InsertVT vtime.VT
	Removals []vtime.VT
	Kind     ChildKind
	// Value is a scalar child's latest value at the captured cut, written
	// at ValueVT (zero when it still holds its embedded value); nil for
	// composites, whose structure is in Children.
	Value    any
	ValueVT  vtime.VT
	Children []ChildImage
}
