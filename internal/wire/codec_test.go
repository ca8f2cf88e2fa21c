package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"decaf/internal/consensus"
	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
)

// gobRoundTrip pushes m through gob — the reference encoding — and
// returns the result. Gob normalizes empty slices to nil, so comparing a
// binary round trip against a GOB round trip (rather than the original)
// checks semantic equality under the same normalization.
func gobRoundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	in := struct{ M Message }{M: m}
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatalf("gob encode %T: %v", m, err)
	}
	var out struct{ M Message }
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", m, err)
	}
	return out.M
}

// binRoundTrip pushes m through the binary codec.
func binRoundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatalf("binary encode %T: %v", m, err)
	}
	got, n, err := DecodeMessage(b)
	if err != nil {
		t.Fatalf("binary decode %T: %v", m, err)
	}
	if n != len(b) {
		t.Fatalf("decode %T consumed %d of %d bytes", m, n, len(b))
	}
	return got
}

// ---------------------------------------------------------------------------
// Random message generation.
// ---------------------------------------------------------------------------

type gen struct{ rng *rand.Rand }

func (g *gen) vt() vtime.VT {
	return vtime.VT{Time: g.rng.Uint64() >> g.rng.Intn(64), Site: g.site()}
}

func (g *gen) site() vtime.SiteID { return vtime.SiteID(g.rng.Intn(1 << 16)) }

func (g *gen) obj() ids.ObjectID {
	return ids.ObjectID{Site: g.site(), Seq: g.rng.Uint64() >> g.rng.Intn(64)}
}

func (g *gen) str() string {
	n := g.rng.Intn(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(g.rng.Intn(256))
	}
	return string(b)
}

func (g *gen) tag() ElemTag {
	return ElemTag{VT: g.vt(), N: uint32(g.rng.Intn(1 << 20))}
}

func (g *gen) path() Path {
	n := g.rng.Intn(4)
	if n == 0 {
		return nil
	}
	p := make(Path, n)
	for i := range p {
		p[i] = g.pathElem()
	}
	return p
}

func (g *gen) pathElem() PathElem {
	if g.rng.Intn(2) == 0 {
		pin := g.vt()
		pin.Time |= 1 // an entry's insert VT is never zero
		return PathElem{IsKey: true, Key: g.str(), Tag: ElemTag{VT: pin}}
	}
	return PathElem{Tag: g.tag()}
}

func (g *gen) sites() []vtime.SiteID {
	n := g.rng.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]vtime.SiteID, n)
	for i := range out {
		out[i] = g.site()
	}
	return out
}

func (g *gen) graph() repgraph.Wire {
	gr := repgraph.NewGraph(g.obj(), g.site())
	for i := 0; i < g.rng.Intn(4); i++ {
		gr.AddNode(g.obj(), g.site())
	}
	nodes := gr.Nodes()
	for i := 0; i+1 < len(nodes); i++ {
		_ = gr.AddEdge(nodes[i], nodes[i+1])
	}
	return gr.ToWire()
}

// scalar returns a value from the registered dynamic-value set.
func (g *gen) scalar() any {
	switch g.rng.Intn(5) {
	case 0:
		return g.rng.Int63() - (1 << 62)
	case 1:
		return g.rng.NormFloat64() // normal floats only: NaN breaks DeepEqual
	case 2:
		return g.str()
	case 3:
		return g.rng.Intn(2) == 0
	default:
		return nil
	}
}

func (g *gen) childDecl() ChildDecl {
	return ChildDecl{Kind: ChildKind(1 + g.rng.Intn(7)), Value: g.scalar()}
}

func (g *gen) image(depth int) []ChildImage {
	var img []ChildImage
	for n := g.rng.Intn(4); n > 0; n-- {
		c := ChildImage{
			Slot: g.pathElem(), InsertVT: g.vt(), Kind: ChildKind(1 + g.rng.Intn(7)),
			Value: g.scalar(), ValueVT: g.vt(),
		}
		for r := g.rng.Intn(3); r > 0; r-- {
			c.Removals = append(c.Removals, g.vt())
		}
		if depth > 0 && g.rng.Intn(3) == 0 {
			c.Children = g.image(depth - 1)
		}
		img = append(img, c)
	}
	return img
}

func (g *gen) relationships() []Relationship {
	n := 1 + g.rng.Intn(3)
	out := make([]Relationship, n)
	for i := range out {
		out[i].Name = g.str()
		for j := 0; j < g.rng.Intn(3); j++ {
			out[i].Members = append(out[i].Members, Member{Site: g.site(), Obj: g.obj(), Desc: g.str()})
		}
	}
	return out
}

// value returns any dynamic value, including composite payloads.
func (g *gen) value() any {
	switch g.rng.Intn(7) {
	case 5:
		return g.image(2)
	case 6:
		return g.relationships()
	default:
		return g.scalar()
	}
}

func (g *gen) op() Op {
	switch g.rng.Intn(10) {
	case 0:
		return OpSet{Value: g.value()}
	case 1:
		return OpListInsert{Tag: g.tag(), Child: g.childDecl(), After: g.tag()}
	case 2:
		return OpListRemove{Tag: g.tag()}
	case 3:
		return OpTupleSet{Key: g.str(), Child: g.childDecl()}
	case 4:
		return OpTupleRemove{Key: g.str(), Of: g.vt()}
	case 5:
		return OpGraph{Graph: g.graph()}
	case 6:
		if g.rng.Intn(2) == 0 {
			return OpAdd{Delta: g.rng.Int63() - (1 << 62)}
		}
		return OpAdd{Delta: g.rng.NormFloat64()}
	case 7:
		return OpListInsertAfter{Tag: g.tag(), Child: g.childDecl(), After: g.tag()}
	case 8:
		return OpAssocInsert{Rel: g.relationships()[0]}
	default:
		return OpAssoc{Relationships: g.relationships()}
	}
}

func (g *gen) check() ReadCheck {
	return ReadCheck{
		Target:        g.obj(),
		Path:          g.path(),
		ReadVT:        g.vt(),
		GraphVT:       g.vt(),
		CommittedOnly: g.rng.Intn(2) == 0,
		NoReserve:     g.rng.Intn(2) == 0,
	}
}

func (g *gen) checks() []ReadCheck {
	n := g.rng.Intn(3)
	if n == 0 {
		return nil
	}
	out := make([]ReadCheck, n)
	for i := range out {
		out[i] = g.check()
	}
	return out
}

func (g *gen) update() Update {
	return Update{Target: g.obj(), Path: g.path(), ReadVT: g.vt(), GraphVT: g.vt(), Op: g.op()}
}

// numMessageTypes is the number of message types gen.message cycles over:
// every type the codec encodes.
const numMessageTypes = 18

// message produces a random instance of the i-th message type.
func (g *gen) message(i int) Message {
	switch i % numMessageTypes {
	case 0:
		w := Write{TxnVT: g.vt(), Origin: g.site(), Floor: g.vt(), NeedsConfirm: g.rng.Intn(2) == 0, Checks: g.checks()}
		for j := 0; j < 1+g.rng.Intn(4); j++ {
			w.Updates = append(w.Updates, g.update())
		}
		if g.rng.Intn(2) == 0 {
			w.Delegate = append(g.sites(), g.site()) // never empty
		}
		return w
	case 1:
		return ConfirmRead{TxnVT: g.vt(), Origin: g.site(), Floor: g.vt(), ReqID: g.rng.Uint64(), Checks: g.checks()}
	case 2:
		return Confirm{TxnVT: g.vt(), ReqID: g.rng.Uint64(), From: g.site(),
			OK: g.rng.Intn(2) == 0, Transient: g.rng.Intn(2) == 0, Reason: g.str()}
	case 3:
		return Outcome{TxnVT: g.vt(), Committed: g.rng.Intn(2) == 0}
	case 4:
		return JoinRequest{TxnVT: g.vt(), Origin: g.site(), ReqID: g.rng.Uint64(),
			AObj: g.obj(), BObj: g.obj(), GraphA: g.graph()}
	case 5:
		return JoinReply{TxnVT: g.vt(), ReqID: g.rng.Uint64(), From: g.site(),
			OK: g.rng.Intn(2) == 0, Reason: g.str(), Retryable: g.rng.Intn(2) == 0,
			BObj: g.obj(), BValue: g.value(), GraphB: g.graph(),
			PendingGraphTxn: g.vt(), ConfirmSites: g.sites()}
	case 6:
		return PromoteQuery{ReqID: g.rng.Uint64(), Origin: g.site(), Target: g.obj(), Path: g.path()}
	case 7:
		return PromoteReply{ReqID: g.rng.Uint64(), From: g.site(), OK: g.rng.Intn(2) == 0, Child: g.obj()}
	case 8:
		return CommitQuery{TxnVT: g.vt(), From: g.site()}
	case 9:
		return CommitQueryReply{TxnVT: g.vt(), From: g.site(),
			Known: g.rng.Intn(2) == 0, Committed: g.rng.Intn(2) == 0}
	case 10:
		return SyncRequest{From: g.site(), ReqID: g.rng.Uint64(), Floors: g.syncFloors()}
	case 11:
		return SyncUpdates{From: g.site(), ReqID: g.rng.Uint64(),
			WantReply: g.rng.Intn(2) == 0, Floors: g.syncFloors(), Records: g.syncRecords()}
	case 12:
		return RepairPrepare{FailedSite: g.site(), From: g.site(),
			Ballot: g.ballot(), Members: g.sites()}
	case 13:
		return RepairPromise{FailedSite: g.site(), From: g.site(),
			Ballot: g.ballot(), OK: g.rng.Intn(2) == 0, Promised: g.ballot(),
			HasAccepted: g.rng.Intn(2) == 0, AcceptedBallot: g.ballot(),
			Accepted: g.repairValue()}
	case 14:
		return RepairAccept{FailedSite: g.site(), From: g.site(),
			Ballot: g.ballot(), Value: g.repairValue(), Members: g.sites()}
	case 15:
		return RepairAccepted{FailedSite: g.site(), From: g.site(),
			Ballot: g.ballot(), OK: g.rng.Intn(2) == 0, Promised: g.ballot()}
	case 16:
		return RepairLearn{FailedSite: g.site(), From: g.site(),
			Ballot: g.ballot(), Value: g.repairValue()}
	default:
		w := FastWrite{TxnVT: g.vt(), Origin: g.site(), Floor: g.vt()}
		for j := 0; j < 1+g.rng.Intn(4); j++ {
			w.Updates = append(w.Updates, g.update())
		}
		return w
	}
}

func (g *gen) ballot() consensus.Ballot {
	return consensus.Ballot{Round: g.rng.Uint64() >> g.rng.Intn(60), Site: g.site()}
}

func (g *gen) repairValue() RepairValue {
	return RepairValue{FailedSite: g.site(), GraphVT: g.vt()}
}

func (g *gen) syncFloors() []SyncFloor {
	n := g.rng.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([]SyncFloor, n)
	for i := range out {
		out[i] = SyncFloor{Site: g.site(), Time: g.rng.Uint64() >> g.rng.Intn(40)}
	}
	return out
}

// syncRecords returns up to three anti-entropy records: Writes, FastWrites
// and Outcomes, the only messages a SyncUpdates carries.
func (g *gen) syncRecords() []Message {
	n := g.rng.Intn(4)
	if n == 0 {
		return nil
	}
	kinds := []int{0, 3, numMessageTypes - 1} // Write, Outcome, FastWrite
	out := make([]Message, n)
	for i := range out {
		out[i] = g.message(kinds[g.rng.Intn(len(kinds))])
	}
	return out
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

// TestBinaryCodecDifferential generates random messages of every type and
// asserts the binary round trip equals the gob round trip (the oracle).
func TestBinaryCodecDifferential(t *testing.T) {
	g := &gen{rng: rand.New(rand.NewSource(7))}
	const perType = 50
	for i := 0; i < numMessageTypes*perType; i++ {
		m := g.message(i)
		want := gobRoundTrip(t, m)
		got := binRoundTrip(t, m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("differential mismatch for %T:\n binary %#v\n gob    %#v\n input  %#v", m, got, want, m)
		}
	}
}

// TestBinaryCodecFixedMessages round-trips the same hand-picked message
// set the gob tests use, so a representative instance of every field is
// covered deterministically. The baseline messages, which run only over
// the in-memory network, must be refused by the encoder instead.
func TestBinaryCodecFixedMessages(t *testing.T) {
	vt := vtime.VT{Time: 100, Site: 2}
	target := ids.ObjectID{Site: 3, Seq: 7}
	msgs := []Message{
		Write{
			TxnVT:  vt,
			Origin: 2,
			Floor:  vtime.VT{Time: 90, Site: 2},
			Updates: []Update{
				{Target: target, ReadVT: vtime.VT{Time: 40, Site: 1}, Op: OpSet{Value: int64(9)}},
				{Target: target, Path: Path{{IsKey: true, Key: "john", Tag: ElemTag{VT: vtime.VT{Time: 60, Site: 3}}}, {Tag: ElemTag{VT: vt, N: 1}}}, Op: OpSet{Value: "x"}},
				{Target: target, Op: OpListInsert{Tag: ElemTag{VT: vt, N: 2}, Child: ChildDecl{Kind: KindString, Value: "v"}}},
				{Target: target, Op: OpGraph{Graph: sampleGraph()}},
			},
			Checks:       []ReadCheck{{Target: target, ReadVT: vt, CommittedOnly: true, NoReserve: true}},
			NeedsConfirm: true,
			Delegate:     []vtime.SiteID{1, 4},
		},
		FastWrite{
			TxnVT:  vt,
			Origin: 2,
			Floor:  vtime.VT{Time: 90, Site: 2},
			Updates: []Update{
				{Target: target, ReadVT: vt, Op: OpAdd{Delta: int64(3)}},
				{Target: target, ReadVT: vt, Op: OpAdd{Delta: 1.5}},
				{Target: target, Op: OpListInsertAfter{Tag: ElemTag{VT: vt, N: 1}, Child: ChildDecl{Kind: KindString, Value: "v"}, After: ElemTag{VT: vt, N: 0}}},
				{Target: target, Op: OpAssocInsert{Rel: Relationship{Name: "r", Members: []Member{{Site: 1, Obj: target, Desc: "d"}}}}},
			},
		},
		ConfirmRead{TxnVT: vt, Origin: 2, Floor: vtime.VT{Time: 90, Site: 2}, ReqID: 9, Checks: []ReadCheck{{Target: target, ReadVT: vt}}},
		Confirm{TxnVT: vt, ReqID: 9, From: 3, OK: false, Transient: true, Reason: "pending straggler"},
		Outcome{TxnVT: vt, Committed: true},
		JoinRequest{TxnVT: vt, Origin: 2, ReqID: 1, AObj: target, BObj: ids.ObjectID{Site: 1, Seq: 2}, GraphA: sampleGraph()},
		JoinReply{TxnVT: vt, ReqID: 1, From: 1, OK: true, BValue: "hello", GraphB: sampleGraph(), PendingGraphTxn: vt},
		JoinReply{TxnVT: vt, ReqID: 2, From: 1, OK: true, BValue: []ChildImage{
			{Slot: PathElem{IsKey: true, Key: "k", Tag: ElemTag{VT: vt}}, InsertVT: vt, Kind: KindInt, Value: int64(3), ValueVT: vt},
			{Slot: PathElem{IsKey: true, Key: "nested", Tag: ElemTag{VT: vt}}, InsertVT: vt, Removals: []vtime.VT{vt}, Kind: KindList,
				Children: []ChildImage{{Slot: PathElem{Tag: ElemTag{VT: vt, N: 1}}, InsertVT: vt, Kind: KindString, Value: "s"}}},
		}},
		PromoteQuery{ReqID: 4, Origin: 2, Target: target, Path: Path{{IsKey: true, Key: "a", Tag: ElemTag{VT: vt}}}},
		PromoteReply{ReqID: 4, From: 3, OK: true, Child: target},
		CommitQuery{TxnVT: vt, From: 4},
		CommitQueryReply{TxnVT: vt, From: 4, Known: true, Committed: false},
		RepairPrepare{FailedSite: 9, From: 1, Ballot: consensus.Ballot{Round: 2, Site: 1},
			Members: []vtime.SiteID{1, 2, 3}},
		RepairPromise{FailedSite: 9, From: 2, Ballot: consensus.Ballot{Round: 2, Site: 1},
			OK: true, HasAccepted: true, AcceptedBallot: consensus.Ballot{Round: 1, Site: 2},
			Accepted: RepairValue{FailedSite: 9, GraphVT: vt}},
		RepairPromise{FailedSite: 9, From: 2, Ballot: consensus.Ballot{Round: 1, Site: 1},
			OK: false, Promised: consensus.Ballot{Round: 3, Site: 2}},
		RepairAccept{FailedSite: 9, From: 1, Ballot: consensus.Ballot{Round: 2, Site: 1},
			Value:   RepairValue{FailedSite: 9, GraphVT: vt},
			Members: []vtime.SiteID{1, 2, 3}},
		RepairAccepted{FailedSite: 9, From: 3, Ballot: consensus.Ballot{Round: 2, Site: 1}, OK: true},
		RepairLearn{FailedSite: 9, From: 1, Ballot: consensus.Ballot{Round: 2, Site: 1},
			Value: RepairValue{FailedSite: 9, GraphVT: vt}},
		SyncRequest{From: 4, ReqID: 12, Floors: []SyncFloor{{Site: 1, Time: 50}, {Site: 2, Time: 0}}},
		SyncUpdates{From: 1, ReqID: 12, WantReply: true,
			Floors: []SyncFloor{{Site: 4, Time: 9}},
			Records: []Message{
				Outcome{TxnVT: vt, Committed: true},
				Write{TxnVT: vt, Origin: 2, Updates: []Update{{Target: target, Op: OpSet{Value: 2.5}}}},
				FastWrite{TxnVT: vt, Origin: 2, Updates: []Update{{Target: target, Op: OpAdd{Delta: int64(1)}}}},
			}},
	}
	for _, m := range msgs {
		t.Run(m.Kind()+"/"+reflect.TypeOf(m).Name(), func(t *testing.T) {
			want := gobRoundTrip(t, m)
			got := binRoundTrip(t, m)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, want)
			}
		})
	}
	for _, m := range []Message{
		GVTUpdate{VT: vt, From: 2, Name: "x", Value: int64(5)},
		GVTAck{VT: vt, From: 2},
		GVTToken{Round: 8, Min: vt, MinValid: true, GVT: vtime.VT{Time: 90, Site: 1}},
		CenWrite{Seq: 11, From: 2, Name: "y", Value: 2.5},
		CenEcho{Seq: 11, Name: "y", Value: 2.5},
	} {
		t.Run(m.Kind()+"/"+reflect.TypeOf(m).Name(), func(t *testing.T) {
			if b, err := AppendMessage(nil, m); err == nil {
				t.Errorf("an in-memory-only message encoded to %x", b)
			}
		})
	}
}

// filler sets every exported field reachable from a value to a non-zero
// value. Each scalar takes the next value of a counter, so a field the
// codec drops, swaps or duplicates does not round-trip equal. A dynamic
// value (any) is an int64, an Op is an OpSet and a Message (a sync
// record) is an Outcome; a pointer to, or a
// slice of, a type already being filled is filled one level deep.
type filler struct {
	n       int64
	filling map[reflect.Type]int
}

var (
	opType      = reflect.TypeOf((*Op)(nil)).Elem()
	messageType = reflect.TypeOf((*Message)(nil)).Elem()
)

func (f *filler) next() int64 {
	f.n++
	return f.n
}

func (f *filler) fill(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(f.next())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.next()))
	case reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next()))
	case reflect.Slice:
		if f.filling[v.Type().Elem()] > 1 {
			return
		}
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			f.fill(t, s.Index(i))
		}
		v.Set(s)
	case reflect.Pointer:
		if f.filling[v.Type().Elem()] > 1 {
			return
		}
		p := reflect.New(v.Type().Elem())
		f.fill(t, p.Elem())
		v.Set(p)
	case reflect.Struct:
		f.filling[v.Type()]++
		defer func() { f.filling[v.Type()]-- }()
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(t, v.Field(i))
			}
		}
	case reflect.Interface:
		switch v.Type() {
		case opType:
			v.Set(reflect.ValueOf(filled[OpSet](t, f)))
		case messageType:
			v.Set(reflect.ValueOf(filled[Outcome](t, f)))
		default:
			v.Set(reflect.ValueOf(f.next()))
		}
	default:
		t.Fatalf("filler: no rule for %s (%s)", v.Type(), v.Kind())
	}
}

// filled returns a T with every exported field set by f.
func filled[T any](t *testing.T, f *filler) T {
	var x T
	f.fill(t, reflect.ValueOf(&x).Elem())
	return x
}

// TestCodecKeepsEveryField round-trips every message type, and every Op
// inside a Write, with every exported field set, and requires the decoded
// value to equal the original: a field the codec forgets fails here.
func TestCodecKeepsEveryField(t *testing.T) {
	f := &filler{filling: map[reflect.Type]int{}}
	msgs := []Message{
		filled[Write](t, f), filled[ConfirmRead](t, f), filled[Confirm](t, f),
		filled[Outcome](t, f), filled[JoinRequest](t, f), filled[JoinReply](t, f),
		filled[PromoteQuery](t, f), filled[PromoteReply](t, f), filled[CommitQuery](t, f),
		filled[CommitQueryReply](t, f), filled[FastWrite](t, f), filled[SyncRequest](t, f),
		filled[RepairPrepare](t, f), filled[RepairPromise](t, f), filled[RepairAccept](t, f),
		filled[RepairAccepted](t, f), filled[RepairLearn](t, f),
	}
	// A SyncUpdates carries records of the three types it may carry.
	sync := filled[SyncUpdates](t, f)
	sync.Records = []Message{filled[Write](t, f), filled[FastWrite](t, f), filled[Outcome](t, f)}
	// The composite members of the dynamic value set.
	snap := filled[JoinReply](t, f)
	snap.BValue = filled[[]ChildImage](t, f)
	rels := filled[JoinReply](t, f)
	rels.BValue = filled[[]Relationship](t, f)
	msgs = append(msgs, sync, snap, rels)
	ops := []Op{
		filled[OpSet](t, f), filled[OpListInsert](t, f), filled[OpListRemove](t, f),
		filled[OpTupleSet](t, f), filled[OpTupleRemove](t, f), filled[OpGraph](t, f),
		filled[OpAssoc](t, f), filled[OpAdd](t, f), filled[OpListInsertAfter](t, f),
		filled[OpAssocInsert](t, f),
	}
	for _, op := range ops {
		w := filled[Write](t, f)
		w.Updates[1].Op = op
		msgs = append(msgs, w)
	}

	tags := map[byte]bool{}
	for i, m := range msgs {
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("message %d, %T: encode: %v", i, m, err)
		}
		tags[b[0]] = true
		got, _, err := DecodeMessage(b)
		if err != nil {
			t.Errorf("message %d, %T: decode: %v", i, m, err)
		} else if !reflect.DeepEqual(got, m) {
			t.Errorf("message %d, %T: a field did not survive the codec:\n got %#v\nwant %#v", i, m, got, m)
		}
	}
	if len(tags) != numMessageTypes {
		t.Errorf("the table covers %d message tags, the codec has %d", len(tags), numMessageTypes)
	}
	if len(ops) != int(opTagAssocInsert) {
		t.Errorf("the table covers %d ops, the codec has %d", len(ops), opTagAssocInsert)
	}
}

// TestBinaryCodecConcatenation checks self-delimiting framing: several
// messages appended back to back decode in order from one buffer.
func TestBinaryCodecConcatenation(t *testing.T) {
	g := &gen{rng: rand.New(rand.NewSource(42))}
	var msgs []Message
	var buf []byte
	var err error
	for i := 0; i < 60; i++ {
		m := g.message(i)
		msgs = append(msgs, m)
		buf, err = AppendMessage(buf, m)
		if err != nil {
			t.Fatalf("append %T: %v", m, err)
		}
	}
	rest := buf
	for i, want := range msgs {
		got, n, err := DecodeMessage(rest)
		if err != nil {
			t.Fatalf("decode message %d: %v", i, err)
		}
		rest = rest[n:]
		if !reflect.DeepEqual(got, gobRoundTrip(t, want)) {
			t.Fatalf("message %d mismatch: got %#v want %#v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all messages", len(rest))
	}
}

// TestBinaryCodecTruncation ensures decoding any strict prefix of a valid
// encoding errors out instead of panicking or fabricating a message.
func TestBinaryCodecTruncation(t *testing.T) {
	g := &gen{rng: rand.New(rand.NewSource(3))}
	for i := 0; i < 36; i++ {
		m := g.message(i)
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		for cut := 0; cut < len(b); cut++ {
			_, n, err := DecodeMessage(b[:cut])
			if err == nil && n > cut {
				t.Fatalf("decode of %d/%d bytes of %T claimed %d consumed", cut, len(b), m, n)
			}
		}
	}
}

// TestBinaryCodecCorruptInput throws random bytes at the decoder; it must
// return an error or a message, never panic or over-read. The retired
// tags — messages 11-13 (as old peers encoded them) and 0xFF, value 0xFF —
// must be errors.
func TestBinaryCodecCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		m, n, err := DecodeMessage(b)
		if err == nil && (n > len(b) || m == nil) {
			t.Fatalf("decode of junk %x returned m=%v n=%d without error", b, m, n)
		}
	}
	gobValue, err := AppendMessage(nil, FastWrite{TxnVT: vtime.VT{Time: 1, Site: 1}, Origin: 1,
		Updates: []Update{{Op: OpSet{}}}})
	if err != nil {
		t.Fatal(err)
	}
	gobValue[len(gobValue)-1] = 0xFF // the value tag is the last byte
	for _, b := range append(retiredEncodings(),
		[]byte{0xFF, 0x01, 0x02}, // message escape: length-prefixed blob
		append(gobValue, 0x01, 0x02),
	) {
		if m, _, err := DecodeMessage(b); err == nil {
			t.Errorf("decode of retired encoding %x returned %#v without error", b, m)
		}
	}
}

// TestMessageTagsStable pins the numeric value of every message tag:
// WAL records, anti-entropy transfers and pinned simulator traces carry
// them, so retiring a message must not renumber its neighbours.
func TestMessageTagsStable(t *testing.T) {
	want := map[byte]byte{
		tagWrite: 1, tagConfirmRead: 2, tagConfirm: 3, tagOutcome: 4,
		tagJoinRequest: 5, tagJoinReply: 6, tagPromoteQuery: 7, tagPromoteReply: 8,
		tagCommitQuery: 9, tagCommitQueryReply: 10,
		tagFastWrite: 19, tagSyncRequest: 20, tagSyncUpdates: 21,
		tagRepairPrepare: 22, tagRepairPromise: 23, tagRepairAccept: 24,
		tagRepairAccepted: 25, tagRepairLearn: 26,
	}
	if len(want) != numMessageTypes {
		t.Fatalf("tag table pins %d tags, gen.message knows %d message types", len(want), numMessageTypes)
	}
	for got, w := range want {
		if got != w {
			t.Errorf("tag with pinned value %d is now %d", w, got)
		}
	}
}

// TestBinaryCodecRejectsUnsupportedValue checks that a dynamic value
// outside the closed value set is an encode error wherever it hides.
func TestBinaryCodecRejectsUnsupportedValue(t *testing.T) {
	bad := map[string]int64{"a": 1}
	vt := vtime.VT{Time: 1, Site: 1}
	for _, m := range []Message{
		Write{TxnVT: vt, Origin: 1, Updates: []Update{{Op: OpSet{Value: bad}}}},
		Write{TxnVT: vt, Origin: 1, Updates: []Update{{Op: OpSet{Value: int(3)}}}},
		JoinReply{TxnVT: vt, BValue: []ChildImage{{Kind: KindList,
			Children: []ChildImage{{Kind: KindInt, Value: bad}}}}},
	} {
		if b, err := AppendMessage(nil, m); err == nil {
			t.Errorf("%s with an unsupported value encoded to %x", m.Kind(), b)
		}
	}
}

// TestCodecBaselineTagsUnknown checks that the baseline messages' former
// tags 14-18 decode as unknown: the messages run only over the in-memory
// network and have no encoding (TestBinaryCodecFixedMessages checks that
// the encoder refuses them).
func TestCodecBaselineTagsUnknown(t *testing.T) {
	for _, b := range retiredBaselineEncodings() {
		m, _, err := DecodeMessage(b)
		if err == nil || !strings.Contains(err.Error(), "unknown message tag") {
			t.Errorf("decode of %x = %#v, %v; want an unknown-tag error", b, m, err)
		}
	}
}

// TestCodecRejectsEmptyDelegation checks that a delegation names at least
// one site: it always includes the origin, so a set delegation flag
// followed by zero sites is corrupt input, and an empty non-nil Delegate
// does not encode.
func TestCodecRejectsEmptyDelegation(t *testing.T) {
	w := Write{TxnVT: vtime.VT{Time: 5, Site: 2}, Origin: 2, NeedsConfirm: true}
	b, err := AppendMessage(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	// The delegation flag is the last byte; set it and add a zero count.
	b = append(b[:len(b)-1], 1, 0)
	if m, _, err := DecodeMessage(b); err == nil {
		t.Errorf("a delegation of zero sites decoded as %#v", m)
	}
	w.Delegate = []vtime.SiteID{}
	if b, err := AppendMessage(nil, w); err == nil {
		t.Errorf("an empty delegation encoded to %x", b)
	}
	w.Delegate = []vtime.SiteID{2, 3}
	if got := binRoundTrip(t, w); !reflect.DeepEqual(got, w) {
		t.Errorf("delegated Write round trip: got %#v, want %#v", got, w)
	}
}

// TestCodecRejectsForeignSyncRecords checks that a SyncUpdates record is
// a Write, FastWrite or Outcome: any other message, a nested SyncUpdates
// included, is refused by the encoder and by the decoder.
func TestCodecRejectsForeignSyncRecords(t *testing.T) {
	vt := vtime.VT{Time: 5, Site: 2}
	head, err := AppendMessage(nil, SyncUpdates{From: 1, ReqID: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Message{
		Confirm{TxnVT: vt, From: 3, OK: true},
		SyncUpdates{From: 3, ReqID: 8, Records: []Message{Outcome{TxnVT: vt}}},
	} {
		m := SyncUpdates{From: 1, ReqID: 7, Records: []Message{Outcome{TxnVT: vt}, rec}}
		if b, err := AppendMessage(nil, m); err == nil {
			t.Errorf("a %s record encoded to %x", rec.Kind(), b)
		}
		// The record count is the last byte of an empty SyncUpdates.
		b := append(head[:len(head)-1:len(head)-1], 1)
		if b, err = AppendMessage(b, rec); err != nil {
			t.Fatal(err)
		}
		if got, _, err := DecodeMessage(b); err == nil {
			t.Errorf("a %s record decoded as %#v", rec.Kind(), got)
		}
	}
}
