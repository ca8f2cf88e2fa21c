package wire

// Hand-rolled binary codec for the DECAF wire protocol.
//
// A reflection-driven encoding (gob ships type descriptors with the data)
// costs much CPU and many bytes relative to the payload of the small,
// frequent messages this protocol exchanges (WRITE / CONFIRM / COMMIT).
// This codec encodes each message type by hand with encoding/binary
// varints: one tag byte selects the message type, fixed layouts follow.
// Message types and dynamically typed payload values are closed sets, so
// there is no escape encoding: a value outside the set is an encode error,
// an unknown tag a decode error. Gob is the tests' differential oracle
// (compare with `go test ./internal/wire -run '^$' -bench 'Encode|Decode'`).
//
// Layout conventions:
//
//   - unsigned integers (times, sites, sequence numbers, lengths) are
//     uvarints; signed integers are zigzag varints
//   - float64 is 8 little-endian bytes of its IEEE-754 bits
//   - strings and byte blobs are length-prefixed (uvarint count + bytes)
//   - slices are a uvarint count followed by the elements; a zero count
//     decodes as a nil slice
//   - dynamically typed values (OpSet.Value, ChildDecl.Value,
//     JoinReply.BValue) carry a one-byte value tag
//   - a message nested in another (SyncUpdates.Records) is its own
//     self-delimiting encoding, tag byte first

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"decaf/internal/consensus"
	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
)

// Message type tags. Stable: these are the on-the-wire protocol, and WAL
// records and pinned simulator traces carry them. A retired tag keeps its
// slot so no surviving tag changes value, and is never reassigned.
const (
	tagWrite byte = iota + 1
	tagConfirmRead
	tagConfirm
	tagOutcome
	tagJoinRequest
	tagJoinReply
	tagPromoteQuery
	tagPromoteReply
	tagCommitQuery
	tagCommitQueryReply
	_ // 11: retired with the epoch repair protocol (REPAIR-PROPOSE)
	_ // 12: retired (REPAIR-ACK)
	_ // 13: retired (REPAIR-DECIDE)
	_ // 14: retired (GVT-UPDATE); the baseline messages are in-memory only
	_ // 15: retired (GVT-ACK)
	_ // 16: retired (GVT-TOKEN)
	_ // 17: retired (CEN-WRITE)
	_ // 18: retired (CEN-ECHO)
	tagFastWrite
	tagSyncRequest
	tagSyncUpdates
	tagRepairPrepare
	tagRepairPromise
	tagRepairAccept
	tagRepairAccepted
	tagRepairLearn
	// 0xFF: retired (gob-encoded message escape); decodes as an unknown tag.
)

// Operation tags.
const (
	opTagSet byte = iota + 1
	opTagListInsert
	opTagListRemove
	opTagTupleSet
	opTagTupleRemove
	opTagGraph
	opTagAssoc
	opTagAdd
	opTagListInsertAfter
	opTagAssocInsert
)

// Dynamic value tags.
const (
	valNil byte = iota
	valInt64
	valFloat64
	valString
	valFalse
	valTrue
	valImage
	valRelationships
	// 0xFF: retired (gob-encoded value escape); decodes as an unknown tag.
)

// ---------------------------------------------------------------------------
// Append-style encoding.
// ---------------------------------------------------------------------------

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendVT(b []byte, v vtime.VT) []byte {
	b = binary.AppendUvarint(b, v.Time)
	return binary.AppendUvarint(b, uint64(v.Site))
}

func appendSite(b []byte, s vtime.SiteID) []byte {
	return binary.AppendUvarint(b, uint64(s))
}

func appendSites(b []byte, sites []vtime.SiteID) []byte {
	b = binary.AppendUvarint(b, uint64(len(sites)))
	for _, s := range sites {
		b = appendSite(b, s)
	}
	return b
}

func appendBallot(b []byte, bal consensus.Ballot) []byte {
	b = binary.AppendUvarint(b, bal.Round)
	return appendSite(b, bal.Site)
}

func appendRepairValue(b []byte, v RepairValue) []byte {
	b = appendSite(b, v.FailedSite)
	return appendVT(b, v.GraphVT)
}

func appendSyncFloors(b []byte, floors []SyncFloor) []byte {
	b = binary.AppendUvarint(b, uint64(len(floors)))
	for _, f := range floors {
		b = appendSite(b, f.Site)
		b = binary.AppendUvarint(b, f.Time)
	}
	return b
}

func appendObj(b []byte, o ids.ObjectID) []byte {
	b = binary.AppendUvarint(b, uint64(o.Site))
	return binary.AppendUvarint(b, o.Seq)
}

func appendTag(b []byte, t ElemTag) []byte {
	b = appendVT(b, t.VT)
	return binary.AppendUvarint(b, uint64(t.N))
}

func appendPath(b []byte, p Path) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	for _, e := range p {
		b = appendPathElem(b, e)
	}
	return b
}

func appendPathElem(b []byte, e PathElem) []byte {
	b = appendBool(b, e.IsKey)
	if e.IsKey {
		b = appendString(b, e.Key)
	}
	return appendTag(b, e.Tag)
}

func appendGraph(b []byte, g repgraph.Wire) []byte {
	b = binary.AppendUvarint(b, uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		b = appendObj(b, n.Obj)
		b = appendSite(b, n.Site)
	}
	b = binary.AppendUvarint(b, uint64(len(g.Edges)))
	for _, e := range g.Edges {
		b = appendObj(b, e.Edge.A)
		b = appendObj(b, e.Edge.B)
		b = binary.AppendVarint(b, int64(e.Count))
	}
	return appendObj(b, g.Anchor)
}

func appendImage(b []byte, img []ChildImage) ([]byte, error) {
	var err error
	b = binary.AppendUvarint(b, uint64(len(img)))
	for _, c := range img {
		b = appendPathElem(b, c.Slot)
		b = appendVT(b, c.InsertVT)
		b = binary.AppendUvarint(b, uint64(len(c.Removals)))
		for _, vt := range c.Removals {
			b = appendVT(b, vt)
		}
		b = binary.AppendUvarint(b, uint64(c.Kind))
		if b, err = appendValue(b, c.Value); err != nil {
			return b, err
		}
		b = appendVT(b, c.ValueVT)
		if b, err = appendImage(b, c.Children); err != nil {
			return b, err
		}
	}
	return b, nil
}

func appendRelationships(b []byte, rels []Relationship) []byte {
	b = binary.AppendUvarint(b, uint64(len(rels)))
	for _, r := range rels {
		b = appendString(b, r.Name)
		b = binary.AppendUvarint(b, uint64(len(r.Members)))
		for _, m := range r.Members {
			b = appendSite(b, m.Site)
			b = appendObj(b, m.Obj)
			b = appendString(b, m.Desc)
		}
	}
	return b
}

// appendValue encodes a dynamically typed payload value. The value set is
// closed (the engine admits nothing else into a history); anything outside
// it is an encode error.
func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, valNil), nil
	case int64:
		b = append(b, valInt64)
		return binary.AppendVarint(b, v), nil
	case float64:
		b = append(b, valFloat64)
		return appendFloat(b, v), nil
	case string:
		b = append(b, valString)
		return appendString(b, v), nil
	case bool:
		if v {
			return append(b, valTrue), nil
		}
		return append(b, valFalse), nil
	case []ChildImage:
		b = append(b, valImage)
		return appendImage(b, v)
	case []Relationship:
		b = append(b, valRelationships)
		return appendRelationships(b, v), nil
	default:
		return b, fmt.Errorf("wire: unsupported value type %T", v)
	}
}

func appendChildDecl(b []byte, c ChildDecl) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(c.Kind))
	return appendValue(b, c.Value)
}

func appendCheck(b []byte, c ReadCheck) []byte {
	b = appendObj(b, c.Target)
	b = appendPath(b, c.Path)
	b = appendVT(b, c.ReadVT)
	b = appendVT(b, c.GraphVT)
	b = appendBool(b, c.CommittedOnly)
	return appendBool(b, c.NoReserve)
}

func appendOp(b []byte, op Op) ([]byte, error) {
	switch op := op.(type) {
	case OpSet:
		b = append(b, opTagSet)
		return appendValue(b, op.Value)
	case OpListInsert:
		b = append(b, opTagListInsert)
		b = appendTag(b, op.Tag)
		var err error
		b, err = appendChildDecl(b, op.Child)
		if err != nil {
			return b, err
		}
		return appendTag(b, op.After), nil
	case OpListRemove:
		b = append(b, opTagListRemove)
		return appendTag(b, op.Tag), nil
	case OpTupleSet:
		b = append(b, opTagTupleSet)
		b = appendString(b, op.Key)
		return appendChildDecl(b, op.Child)
	case OpTupleRemove:
		b = append(b, opTagTupleRemove)
		b = appendString(b, op.Key)
		return appendVT(b, op.Of), nil
	case OpGraph:
		b = append(b, opTagGraph)
		return appendGraph(b, op.Graph), nil
	case OpAssoc:
		b = append(b, opTagAssoc)
		return appendRelationships(b, op.Relationships), nil
	case OpAdd:
		b = append(b, opTagAdd)
		return appendValue(b, op.Delta)
	case OpListInsertAfter:
		b = append(b, opTagListInsertAfter)
		b = appendTag(b, op.Tag)
		var err error
		b, err = appendChildDecl(b, op.Child)
		if err != nil {
			return b, err
		}
		return appendTag(b, op.After), nil
	case OpAssocInsert:
		b = append(b, opTagAssocInsert)
		return appendRelationships(b, []Relationship{op.Rel}), nil
	default:
		return b, fmt.Errorf("wire: unknown op type %T", op)
	}
}

func appendUpdate(b []byte, u Update) ([]byte, error) {
	b = appendObj(b, u.Target)
	b = appendPath(b, u.Path)
	b = appendVT(b, u.ReadVT)
	b = appendVT(b, u.GraphVT)
	return appendOp(b, u.Op)
}

// AppendMessage appends the binary encoding of m to b and returns the
// extended buffer. The encoding is self-delimiting: DecodeMessage reports
// how many bytes it consumed, so messages can be concatenated back to
// back in one frame.
func AppendMessage(b []byte, m Message) ([]byte, error) {
	var err error
	switch m := m.(type) {
	case Write:
		b = append(b, tagWrite)
		b = appendVT(b, m.TxnVT)
		b = appendSite(b, m.Origin)
		b = appendVT(b, m.Floor)
		b = binary.AppendUvarint(b, uint64(len(m.Updates)))
		for _, u := range m.Updates {
			if b, err = appendUpdate(b, u); err != nil {
				return b, err
			}
		}
		b = binary.AppendUvarint(b, uint64(len(m.Checks)))
		for _, c := range m.Checks {
			b = appendCheck(b, c)
		}
		b = appendBool(b, m.NeedsConfirm)
		if m.Delegate == nil {
			return appendBool(b, false), nil
		}
		if len(m.Delegate) == 0 {
			return b, errEmptyDelegation
		}
		b = appendBool(b, true)
		return appendSites(b, m.Delegate), nil
	case FastWrite:
		b = append(b, tagFastWrite)
		b = appendVT(b, m.TxnVT)
		b = appendSite(b, m.Origin)
		b = appendVT(b, m.Floor)
		b = binary.AppendUvarint(b, uint64(len(m.Updates)))
		for _, u := range m.Updates {
			if b, err = appendUpdate(b, u); err != nil {
				return b, err
			}
		}
		return b, nil
	case SyncRequest:
		b = append(b, tagSyncRequest)
		b = appendSite(b, m.From)
		b = binary.AppendUvarint(b, m.ReqID)
		return appendSyncFloors(b, m.Floors), nil
	case SyncUpdates:
		b = append(b, tagSyncUpdates)
		b = appendSite(b, m.From)
		b = binary.AppendUvarint(b, m.ReqID)
		b = appendBool(b, m.WantReply)
		b = appendSyncFloors(b, m.Floors)
		b = binary.AppendUvarint(b, uint64(len(m.Records)))
		for _, rec := range m.Records {
			switch rec.(type) {
			case Write, FastWrite, Outcome:
			default:
				return b, fmt.Errorf("wire: sync record of type %v", reflect.TypeOf(rec))
			}
			if b, err = AppendMessage(b, rec); err != nil {
				return b, err
			}
		}
		return b, nil
	case ConfirmRead:
		b = append(b, tagConfirmRead)
		b = appendVT(b, m.TxnVT)
		b = appendSite(b, m.Origin)
		b = appendVT(b, m.Floor)
		b = binary.AppendUvarint(b, m.ReqID)
		b = binary.AppendUvarint(b, uint64(len(m.Checks)))
		for _, c := range m.Checks {
			b = appendCheck(b, c)
		}
		return b, nil
	case Confirm:
		b = append(b, tagConfirm)
		b = appendVT(b, m.TxnVT)
		b = binary.AppendUvarint(b, m.ReqID)
		b = appendSite(b, m.From)
		b = appendBool(b, m.OK)
		b = appendBool(b, m.Transient)
		return appendString(b, m.Reason), nil
	case Outcome:
		b = append(b, tagOutcome)
		b = appendVT(b, m.TxnVT)
		return appendBool(b, m.Committed), nil
	case JoinRequest:
		b = append(b, tagJoinRequest)
		b = appendVT(b, m.TxnVT)
		b = appendSite(b, m.Origin)
		b = binary.AppendUvarint(b, m.ReqID)
		b = appendObj(b, m.AObj)
		b = appendObj(b, m.BObj)
		return appendGraph(b, m.GraphA), nil
	case JoinReply:
		b = append(b, tagJoinReply)
		b = appendVT(b, m.TxnVT)
		b = binary.AppendUvarint(b, m.ReqID)
		b = appendSite(b, m.From)
		b = appendBool(b, m.OK)
		b = appendString(b, m.Reason)
		b = appendBool(b, m.Retryable)
		b = appendObj(b, m.BObj)
		if b, err = appendValue(b, m.BValue); err != nil {
			return b, err
		}
		b = appendGraph(b, m.GraphB)
		b = appendVT(b, m.PendingGraphTxn)
		return appendSites(b, m.ConfirmSites), nil
	case PromoteQuery:
		b = append(b, tagPromoteQuery)
		b = binary.AppendUvarint(b, m.ReqID)
		b = appendSite(b, m.Origin)
		b = appendObj(b, m.Target)
		return appendPath(b, m.Path), nil
	case PromoteReply:
		b = append(b, tagPromoteReply)
		b = binary.AppendUvarint(b, m.ReqID)
		b = appendSite(b, m.From)
		b = appendBool(b, m.OK)
		return appendObj(b, m.Child), nil
	case CommitQuery:
		b = append(b, tagCommitQuery)
		b = appendVT(b, m.TxnVT)
		return appendSite(b, m.From), nil
	case CommitQueryReply:
		b = append(b, tagCommitQueryReply)
		b = appendVT(b, m.TxnVT)
		b = appendSite(b, m.From)
		b = appendBool(b, m.Known)
		return appendBool(b, m.Committed), nil
	case RepairPrepare:
		b = append(b, tagRepairPrepare)
		b = appendSite(b, m.FailedSite)
		b = appendSite(b, m.From)
		b = appendBallot(b, m.Ballot)
		return appendSites(b, m.Members), nil
	case RepairPromise:
		b = append(b, tagRepairPromise)
		b = appendSite(b, m.FailedSite)
		b = appendSite(b, m.From)
		b = appendBallot(b, m.Ballot)
		b = appendBool(b, m.OK)
		b = appendBallot(b, m.Promised)
		b = appendBool(b, m.HasAccepted)
		b = appendBallot(b, m.AcceptedBallot)
		return appendRepairValue(b, m.Accepted), nil
	case RepairAccept:
		b = append(b, tagRepairAccept)
		b = appendSite(b, m.FailedSite)
		b = appendSite(b, m.From)
		b = appendBallot(b, m.Ballot)
		b = appendRepairValue(b, m.Value)
		return appendSites(b, m.Members), nil
	case RepairAccepted:
		b = append(b, tagRepairAccepted)
		b = appendSite(b, m.FailedSite)
		b = appendSite(b, m.From)
		b = appendBallot(b, m.Ballot)
		b = appendBool(b, m.OK)
		return appendBallot(b, m.Promised), nil
	case RepairLearn:
		b = append(b, tagRepairLearn)
		b = appendSite(b, m.FailedSite)
		b = appendSite(b, m.From)
		b = appendBallot(b, m.Ballot)
		return appendRepairValue(b, m.Value), nil
	default:
		// Message is sealed (isMessage). Every implementation the engine
		// sends has an arm above; the baseline messages (baseline.go) are
		// in-memory only and have none. Reaching here for anything else is a
		// missing arm, i.e. a bug, or a nil message.
		// The error names m's type without holding m, so m does not escape
		// and a caller's message need not be boxed on the heap.
		return b, fmt.Errorf("wire: unsupported message type %v", reflect.TypeOf(m))
	}
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

// reader walks a byte slice accumulating the first error. All getters
// return zero values after an error, so decode paths stay linear.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

var errShortBuffer = fmt.Errorf("wire: truncated message")

// errEmptyDelegation refuses a delegation that names no site: it always
// names at least the origin.
var errEmptyDelegation = fmt.Errorf("wire: delegation names no site")

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(errShortBuffer)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(errShortBuffer)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byte_() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(errShortBuffer)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *reader) bool_() bool { return r.byte_() != 0 }

func (r *reader) bytes_(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail(errShortBuffer)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) string_() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)-r.off) {
		r.fail(errShortBuffer)
		return ""
	}
	return string(r.bytes_(int(n)))
}

func (r *reader) float() float64 {
	s := r.bytes_(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(s))
}

func (r *reader) vt() vtime.VT {
	t := r.uvarint()
	s := r.uvarint()
	return vtime.VT{Time: t, Site: vtime.SiteID(s)}
}

func (r *reader) site() vtime.SiteID { return vtime.SiteID(r.uvarint()) }

func (r *reader) ballot() consensus.Ballot {
	round := r.uvarint()
	return consensus.Ballot{Round: round, Site: r.site()}
}

// count reads a slice length and sanity-checks it against the bytes that
// remain, so corrupt input cannot provoke a huge allocation.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(errShortBuffer)
		return 0
	}
	return int(n)
}

func (r *reader) sites() []vtime.SiteID {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]vtime.SiteID, n)
	for i := range out {
		out[i] = r.site()
	}
	return out
}

func (r *reader) syncFloors() []SyncFloor {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]SyncFloor, n)
	for i := range out {
		out[i] = SyncFloor{Site: r.site(), Time: r.uvarint()}
	}
	return out
}

// syncRecords reads SyncUpdates.Records: a count, then that many nested
// messages. The record's tag is checked before it is decoded, so a nested
// SyncUpdates is refused without recursing.
func (r *reader) syncRecords() []Message {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]Message, n)
	for i := range out {
		if r.err != nil {
			return nil
		}
		if r.off < len(r.b) {
			switch t := r.b[r.off]; t {
			case tagWrite, tagFastWrite, tagOutcome:
			default:
				r.fail(fmt.Errorf("wire: sync record with message tag %d", t))
				return nil
			}
		}
		m, used, err := DecodeMessage(r.b[r.off:])
		if err != nil {
			r.fail(err)
			return nil
		}
		r.off += used
		out[i] = m
	}
	return out
}

func (r *reader) repairValue() RepairValue {
	return RepairValue{FailedSite: r.site(), GraphVT: r.vt()}
}

func (r *reader) obj() ids.ObjectID {
	s := r.uvarint()
	q := r.uvarint()
	return ids.ObjectID{Site: vtime.SiteID(s), Seq: q}
}

func (r *reader) tag() ElemTag {
	v := r.vt()
	n := r.uvarint()
	return ElemTag{VT: v, N: uint32(n)}
}

func (r *reader) path() Path {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make(Path, n)
	for i := range out {
		out[i] = r.pathElem()
	}
	return out
}

func (r *reader) pathElem() PathElem {
	e := PathElem{IsKey: r.bool_()}
	if e.IsKey {
		e.Key = r.string_()
	}
	e.Tag = r.tag()
	if e.IsKey && e.Tag.VT.IsZero() {
		r.fail(fmt.Errorf("wire: tuple key %q carries no insert VT", e.Key))
	}
	return e
}

func (r *reader) graph() repgraph.Wire {
	var g repgraph.Wire
	if n := r.count(); n > 0 {
		g.Nodes = make([]repgraph.WireNode, n)
		for i := range g.Nodes {
			g.Nodes[i] = repgraph.WireNode{Obj: r.obj(), Site: r.site()}
		}
	}
	if n := r.count(); n > 0 {
		g.Edges = make([]repgraph.WireEdge, n)
		for i := range g.Edges {
			a := r.obj()
			b := r.obj()
			g.Edges[i] = repgraph.WireEdge{Edge: repgraph.Edge{A: a, B: b}, Count: int(r.varint())}
		}
	}
	g.Anchor = r.obj()
	return g
}

func (r *reader) image() []ChildImage {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]ChildImage, n)
	for i := range out {
		c := &out[i]
		c.Slot = r.pathElem()
		c.InsertVT = r.vt()
		if m := r.count(); m > 0 {
			c.Removals = make([]vtime.VT, m)
			for j := range c.Removals {
				c.Removals[j] = r.vt()
			}
		}
		c.Kind = ChildKind(r.uvarint())
		c.Value = r.value()
		c.ValueVT = r.vt()
		c.Children = r.image()
		if r.err != nil {
			return nil
		}
	}
	return out
}

func (r *reader) relationships() []Relationship {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]Relationship, n)
	for i := range out {
		out[i].Name = r.string_()
		if m := r.count(); m > 0 {
			out[i].Members = make([]Member, m)
			for j := range out[i].Members {
				out[i].Members[j] = Member{Site: r.site(), Obj: r.obj(), Desc: r.string_()}
			}
		}
	}
	return out
}

func (r *reader) value() any {
	switch t := r.byte_(); t {
	case valNil:
		return nil
	case valInt64:
		return r.varint()
	case valFloat64:
		return r.float()
	case valString:
		return r.string_()
	case valFalse:
		return false
	case valTrue:
		return true
	case valImage:
		return r.image()
	case valRelationships:
		return r.relationships()
	default:
		r.fail(fmt.Errorf("wire: unknown value tag %d", t))
		return nil
	}
}

func (r *reader) childDecl() ChildDecl {
	k := ChildKind(r.uvarint())
	return ChildDecl{Kind: k, Value: r.value()}
}

func (r *reader) check() ReadCheck {
	return ReadCheck{
		Target:        r.obj(),
		Path:          r.path(),
		ReadVT:        r.vt(),
		GraphVT:       r.vt(),
		CommittedOnly: r.bool_(),
		NoReserve:     r.bool_(),
	}
}

func (r *reader) checks() []ReadCheck {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]ReadCheck, n)
	for i := range out {
		out[i] = r.check()
	}
	return out
}

func (r *reader) op() Op {
	switch t := r.byte_(); t {
	case opTagSet:
		return OpSet{Value: r.value()}
	case opTagListInsert:
		return OpListInsert{
			Tag:   r.tag(),
			Child: r.childDecl(),
			After: r.tag(),
		}
	case opTagListRemove:
		return OpListRemove{Tag: r.tag()}
	case opTagTupleSet:
		return OpTupleSet{Key: r.string_(), Child: r.childDecl()}
	case opTagTupleRemove:
		return OpTupleRemove{Key: r.string_(), Of: r.vt()}
	case opTagGraph:
		return OpGraph{Graph: r.graph()}
	case opTagAssoc:
		return OpAssoc{Relationships: r.relationships()}
	case opTagAdd:
		return OpAdd{Delta: r.value()}
	case opTagListInsertAfter:
		return OpListInsertAfter{
			Tag:   r.tag(),
			Child: r.childDecl(),
			After: r.tag(),
		}
	case opTagAssocInsert:
		rels := r.relationships()
		if len(rels) != 1 {
			r.fail(fmt.Errorf("wire: assoc-insert carries %d relationships", len(rels)))
			return nil
		}
		return OpAssocInsert{Rel: rels[0]}
	default:
		r.fail(fmt.Errorf("wire: unknown op tag %d", t))
		return nil
	}
}

func (r *reader) update() Update {
	return Update{
		Target:  r.obj(),
		Path:    r.path(),
		ReadVT:  r.vt(),
		GraphVT: r.vt(),
		Op:      r.op(),
	}
}

// DecodeMessage decodes one message from the front of b, returning the
// message and the number of bytes consumed.
func DecodeMessage(b []byte) (Message, int, error) {
	r := &reader{b: b}
	var m Message
	switch t := r.byte_(); t {
	case tagWrite:
		w := Write{TxnVT: r.vt(), Origin: r.site(), Floor: r.vt()}
		if n := r.count(); n > 0 {
			w.Updates = make([]Update, n)
			for i := range w.Updates {
				w.Updates[i] = r.update()
			}
		}
		w.Checks = r.checks()
		w.NeedsConfirm = r.bool_()
		if r.bool_() {
			if w.Delegate = r.sites(); w.Delegate == nil {
				r.fail(errEmptyDelegation)
			}
		}
		m = w
	case tagFastWrite:
		w := FastWrite{TxnVT: r.vt(), Origin: r.site(), Floor: r.vt()}
		if n := r.count(); n > 0 {
			w.Updates = make([]Update, n)
			for i := range w.Updates {
				w.Updates[i] = r.update()
			}
		}
		m = w
	case tagSyncRequest:
		m = SyncRequest{From: r.site(), ReqID: r.uvarint(), Floors: r.syncFloors()}
	case tagSyncUpdates:
		m = SyncUpdates{
			From: r.site(), ReqID: r.uvarint(), WantReply: r.bool_(),
			Floors: r.syncFloors(), Records: r.syncRecords(),
		}
	case tagConfirmRead:
		m = ConfirmRead{TxnVT: r.vt(), Origin: r.site(), Floor: r.vt(), ReqID: r.uvarint(), Checks: r.checks()}
	case tagConfirm:
		m = Confirm{
			TxnVT: r.vt(), ReqID: r.uvarint(), From: r.site(),
			OK: r.bool_(), Transient: r.bool_(), Reason: r.string_(),
		}
	case tagOutcome:
		m = Outcome{TxnVT: r.vt(), Committed: r.bool_()}
	case tagJoinRequest:
		m = JoinRequest{
			TxnVT: r.vt(), Origin: r.site(), ReqID: r.uvarint(),
			AObj: r.obj(), BObj: r.obj(), GraphA: r.graph(),
		}
	case tagJoinReply:
		m = JoinReply{
			TxnVT: r.vt(), ReqID: r.uvarint(), From: r.site(),
			OK: r.bool_(), Reason: r.string_(), Retryable: r.bool_(),
			BObj: r.obj(), BValue: r.value(), GraphB: r.graph(),
			PendingGraphTxn: r.vt(), ConfirmSites: r.sites(),
		}
	case tagPromoteQuery:
		m = PromoteQuery{ReqID: r.uvarint(), Origin: r.site(), Target: r.obj(), Path: r.path()}
	case tagPromoteReply:
		m = PromoteReply{ReqID: r.uvarint(), From: r.site(), OK: r.bool_(), Child: r.obj()}
	case tagCommitQuery:
		m = CommitQuery{TxnVT: r.vt(), From: r.site()}
	case tagCommitQueryReply:
		m = CommitQueryReply{TxnVT: r.vt(), From: r.site(), Known: r.bool_(), Committed: r.bool_()}
	case tagRepairPrepare:
		m = RepairPrepare{
			FailedSite: r.site(), From: r.site(), Ballot: r.ballot(),
			Members: r.sites(),
		}
	case tagRepairPromise:
		m = RepairPromise{
			FailedSite: r.site(), From: r.site(), Ballot: r.ballot(),
			OK: r.bool_(), Promised: r.ballot(), HasAccepted: r.bool_(),
			AcceptedBallot: r.ballot(), Accepted: r.repairValue(),
		}
	case tagRepairAccept:
		m = RepairAccept{
			FailedSite: r.site(), From: r.site(), Ballot: r.ballot(),
			Value: r.repairValue(), Members: r.sites(),
		}
	case tagRepairAccepted:
		m = RepairAccepted{
			FailedSite: r.site(), From: r.site(), Ballot: r.ballot(),
			OK: r.bool_(), Promised: r.ballot(),
		}
	case tagRepairLearn:
		m = RepairLearn{
			FailedSite: r.site(), From: r.site(), Ballot: r.ballot(),
			Value: r.repairValue(),
		}
	default:
		return nil, 0, fmt.Errorf("wire: unknown message tag %d", t)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return m, r.off, nil
}
