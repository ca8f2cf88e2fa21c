package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
)

// init registers every message, operation and payload value type with
// encoding/gob, the tests' differential oracle for the binary codec.
func init() {
	gob.Register(Write{})
	gob.Register(FastWrite{})
	gob.Register(ConfirmRead{})
	gob.Register(Confirm{})
	gob.Register(Outcome{})
	gob.Register(JoinRequest{})
	gob.Register(JoinReply{})
	gob.Register(CommitQuery{})
	gob.Register(CommitQueryReply{})
	gob.Register(PromoteQuery{})
	gob.Register(PromoteReply{})
	gob.Register(RepairPrepare{})
	gob.Register(RepairPromise{})
	gob.Register(RepairAccept{})
	gob.Register(RepairAccepted{})
	gob.Register(RepairLearn{})
	gob.Register(SyncRequest{})
	gob.Register(SyncUpdates{})

	gob.Register(OpSet{})
	gob.Register(OpAdd{})
	gob.Register(OpListInsert{})
	gob.Register(OpListInsertAfter{})
	gob.Register(OpAssocInsert{})
	gob.Register(OpListRemove{})
	gob.Register(OpTupleSet{})
	gob.Register(OpTupleRemove{})
	gob.Register(OpGraph{})
	gob.Register(OpAssoc{})

	// Scalar value payloads.
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
	gob.Register([]ChildImage(nil))
	gob.Register([]Relationship(nil))
}

// roundTrip encodes and decodes a Message through gob and returns the
// decoded message.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	var in struct{ M Message }
	in.M = m
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	var out struct{ M Message }
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return out.M
}

func sampleGraph() repgraph.Wire {
	g := repgraph.NewGraph(ids.ObjectID{Site: 1, Seq: 1}, 1)
	g.AddNode(ids.ObjectID{Site: 2, Seq: 4}, 2)
	_ = g.AddEdge(ids.ObjectID{Site: 1, Seq: 1}, ids.ObjectID{Site: 2, Seq: 4})
	return g.ToWire()
}

func TestGobRoundTripAllMessages(t *testing.T) {
	vt := vtime.VT{Time: 100, Site: 2}
	target := ids.ObjectID{Site: 3, Seq: 7}
	msgs := []Message{
		Write{
			TxnVT:  vt,
			Origin: 2,
			Updates: []Update{
				{Target: target, ReadVT: vtime.VT{Time: 40, Site: 1}, Op: OpSet{Value: int64(9)}},
				{Target: target, Path: Path{{IsKey: true, Key: "john"}, {Tag: ElemTag{VT: vt, N: 1}}}, Op: OpSet{Value: "x"}},
			},
			Checks:       []ReadCheck{{Target: target, ReadVT: vt, CommittedOnly: true}},
			NeedsConfirm: true,
			Delegate:     []vtime.SiteID{1, 4},
		},
		ConfirmRead{TxnVT: vt, Origin: 2, ReqID: 9, Checks: []ReadCheck{{Target: target, ReadVT: vt}}},
		Confirm{TxnVT: vt, ReqID: 9, From: 3, OK: false, Transient: true, Reason: "pending straggler"},
		Outcome{TxnVT: vt, Committed: true},
		JoinRequest{TxnVT: vt, Origin: 2, ReqID: 1, AObj: target, BObj: ids.ObjectID{Site: 1, Seq: 2}, GraphA: sampleGraph()},
		JoinReply{TxnVT: vt, ReqID: 1, From: 1, OK: true, BValue: "hello", GraphB: sampleGraph(), PendingGraphTxn: vt},
		CommitQuery{TxnVT: vt, From: 4},
		CommitQueryReply{TxnVT: vt, From: 4, Known: true, Committed: false},
	}
	for _, m := range msgs {
		t.Run(m.Kind()+"/"+reflect.TypeOf(m).Name(), func(t *testing.T) {
			got := roundTrip(t, m)
			if !reflect.DeepEqual(got, m) {
				t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, m)
			}
		})
	}
}

func TestGobRoundTripOps(t *testing.T) {
	vt := vtime.VT{Time: 5, Site: 1}
	ops := []Op{
		OpSet{Value: int64(-3)},
		OpSet{Value: 2.5},
		OpSet{Value: "s"},
		OpSet{Value: true},
		OpListInsert{Tag: ElemTag{VT: vt, N: 2}, Child: ChildDecl{Kind: KindString, Value: "v"}, After: ElemTag{VT: vt, N: 1}},
		OpListRemove{Tag: ElemTag{VT: vt}},
		OpTupleSet{Key: "k", Child: ChildDecl{Kind: KindList}},
		OpTupleRemove{Key: "k"},
		OpGraph{Graph: sampleGraph()},
		OpAssoc{Relationships: []Relationship{{
			Name:    "accounts",
			Members: []Member{{Site: 1, Obj: ids.ObjectID{Site: 1, Seq: 1}, Desc: "checking"}},
		}}},
	}
	for _, op := range ops {
		var buf bytes.Buffer
		var in struct{ O Op }
		in.O = op
		if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
			t.Fatalf("encode %T: %v", op, err)
		}
		var out struct{ O Op }
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decode %T: %v", op, err)
		}
		if !reflect.DeepEqual(out.O, op) {
			t.Errorf("op round trip mismatch:\n got %#v\nwant %#v", out.O, op)
		}
	}
}

func TestOutcomeKind(t *testing.T) {
	if (Outcome{Committed: true}).Kind() != "COMMIT" {
		t.Error("committed outcome should be COMMIT")
	}
	if (Outcome{}).Kind() != "ABORT" {
		t.Error("uncommitted outcome should be ABORT")
	}
}

func TestPathString(t *testing.T) {
	p := Path{
		{IsKey: true, Key: "john"},
		{Tag: ElemTag{VT: vtime.VT{Time: 40, Site: 1}, N: 0}},
	}
	want := "[john][40@s1#0]"
	if got := p.String(); got != want {
		t.Errorf("Path.String() = %q, want %q", got, want)
	}
}

func TestChildKindString(t *testing.T) {
	kinds := map[ChildKind]string{
		KindInt: "int", KindFloat: "float", KindString: "string",
		KindBool: "bool", KindList: "list", KindTuple: "tuple",
		KindAssociation: "association",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestElemTagZero(t *testing.T) {
	if !(ElemTag{}).IsZero() {
		t.Error("zero tag should be zero")
	}
	if (ElemTag{N: 1}).IsZero() {
		t.Error("nonzero tag reported zero")
	}
}
