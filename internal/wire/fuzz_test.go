package wire

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"decaf/internal/consensus"
	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
)

// writeCorpus regenerates the committed seed corpus:
//
//	go test ./internal/wire -run TestWriteSeedCorpus -writecorpus
var writeCorpus = flag.Bool("writecorpus", false, "regenerate seed corpora under testdata/fuzz")

func fvt(t, s uint64) vtime.VT      { return vtime.VT{Time: t, Site: vtime.SiteID(s)} }
func fobj(s, q uint64) ids.ObjectID { return ids.ObjectID{Site: vtime.SiteID(s), Seq: q} }

// seedMessages returns one representative message per wire tag, with
// every optional field populated at least once across the set.
func seedMessages() []Message {
	tag := ElemTag{VT: fvt(7, 1), N: 2}
	path := Path{{IsKey: true, Key: "k", Tag: ElemTag{VT: fvt(5, 1)}}, {Tag: tag}}
	graph := repgraph.Wire{
		Nodes:  []repgraph.WireNode{{Obj: fobj(1, 1), Site: 1}, {Obj: fobj(2, 3), Site: 2}},
		Edges:  []repgraph.WireEdge{{Edge: repgraph.Edge{A: fobj(1, 1), B: fobj(2, 3)}, Count: 2}},
		Anchor: fobj(1, 1),
	}
	image := []ChildImage{
		{Slot: PathElem{IsKey: true, Key: "x", Tag: ElemTag{VT: fvt(4, 1)}}, InsertVT: fvt(4, 1), Kind: KindInt, Value: int64(4), ValueVT: fvt(5, 2)},
		{Slot: PathElem{IsKey: true, Key: "l", Tag: ElemTag{VT: fvt(4, 1)}}, InsertVT: fvt(4, 1), Kind: KindList, Children: []ChildImage{
			{Slot: PathElem{Tag: tag}, InsertVT: fvt(7, 1), Removals: []vtime.VT{fvt(8, 2)}, Kind: KindString, Value: "s"},
		}},
	}
	return []Message{
		Write{
			TxnVT:  fvt(3, 1),
			Origin: 1,
			Floor:  fvt(2, 1),
			Updates: []Update{{
				Target: fobj(2, 5), Path: path,
				ReadVT: fvt(1, 1), GraphVT: fvt(2, 2),
				Op: OpSet{Value: int64(42)},
			}},
			Checks:       []ReadCheck{{Target: fobj(2, 5), ReadVT: fvt(1, 1), CommittedOnly: true, NoReserve: true}},
			NeedsConfirm: true,
			Delegate:     []vtime.SiteID{2, 3},
		},
		Write{
			TxnVT: fvt(9, 2), Origin: 2,
			Updates: []Update{
				{Target: fobj(1, 1), Op: OpListInsert{Tag: tag, Child: ChildDecl{Kind: KindFloat, Value: float64(1.5)}, After: tag}},
				{Target: fobj(1, 1), Op: OpListRemove{Tag: tag}},
				{Target: fobj(1, 1), Op: OpTupleSet{Key: "k", Child: ChildDecl{Kind: KindBool, Value: true}}},
				{Target: fobj(1, 1), Op: OpTupleRemove{Key: "k", Of: fvt(5, 1)}},
				{Target: fobj(1, 1), Op: OpGraph{Graph: graph}},
				{Target: fobj(1, 1), Op: OpAssoc{Relationships: []Relationship{
					{Name: "doc", Members: []Member{{Site: 1, Obj: fobj(1, 1), Desc: "a"}, {Site: 2, Obj: fobj(2, 3), Desc: "b"}}},
				}}},
			},
		},
		FastWrite{TxnVT: fvt(10, 2), Origin: 2, Floor: fvt(8, 2), Updates: []Update{{Target: fobj(1, 1), Op: OpAdd{Delta: int64(3)}}}},
		ConfirmRead{TxnVT: fvt(4, 1), Origin: 1, Floor: fvt(3, 1), ReqID: 77, Checks: []ReadCheck{{Target: fobj(2, 5), Path: path, ReadVT: fvt(2, 2), GraphVT: fvt(1, 1)}}},
		Confirm{TxnVT: fvt(4, 1), ReqID: 77, From: 2, OK: false, Transient: true, Reason: "pending version in interval"},
		Outcome{TxnVT: fvt(4, 1), Committed: true},
		JoinRequest{TxnVT: fvt(6, 3), Origin: 3, ReqID: 9, AObj: fobj(3, 1), BObj: fobj(1, 1), GraphA: graph},
		JoinReply{
			TxnVT: fvt(6, 3), ReqID: 9, From: 1, OK: true,
			BObj: fobj(1, 1), BValue: image, GraphB: graph,
			PendingGraphTxn: fvt(5, 2), ConfirmSites: []vtime.SiteID{1, 2},
		},
		JoinReply{TxnVT: fvt(6, 3), ReqID: 10, From: 1, OK: false, Reason: "busy", Retryable: true},
		PromoteQuery{ReqID: 11, Origin: 2, Target: fobj(1, 1), Path: path},
		PromoteReply{ReqID: 11, From: 1, OK: true, Child: fobj(1, 9)},
		CommitQuery{TxnVT: fvt(12, 1), From: 2},
		CommitQueryReply{TxnVT: fvt(12, 1), From: 3, Known: true, Committed: true},
		RepairPrepare{FailedSite: 1, From: 2, Ballot: consensus.Ballot{Round: 1, Site: 2},
			Members: []vtime.SiteID{2, 3, 4}},
		RepairPromise{FailedSite: 1, From: 3, Ballot: consensus.Ballot{Round: 1, Site: 2},
			OK: true, HasAccepted: true, AcceptedBallot: consensus.Ballot{Round: 1, Site: 3},
			Accepted: RepairValue{FailedSite: 1, GraphVT: fvt(20, 3)}},
		RepairPromise{FailedSite: 1, From: 3, Ballot: consensus.Ballot{Round: 1, Site: 2},
			OK: false, Promised: consensus.Ballot{Round: 2, Site: 4}},
		RepairAccept{FailedSite: 1, From: 2, Ballot: consensus.Ballot{Round: 1, Site: 2},
			Value:   RepairValue{FailedSite: 1, GraphVT: fvt(20, 2)},
			Members: []vtime.SiteID{2, 3, 4}},
		RepairAccepted{FailedSite: 1, From: 4, Ballot: consensus.Ballot{Round: 1, Site: 2}, OK: true},
		RepairLearn{FailedSite: 1, From: 2, Ballot: consensus.Ballot{Round: 1, Site: 2},
			Value: RepairValue{FailedSite: 1, GraphVT: fvt(20, 2)}},
		SyncRequest{From: 2, ReqID: 13, Floors: []SyncFloor{{Site: 1, Time: 4}, {Site: 3, Time: 0}}},
		SyncUpdates{From: 1, ReqID: 13, WantReply: true, Floors: []SyncFloor{{Site: 2, Time: 9}},
			Records: []Message{
				Outcome{TxnVT: fvt(3, 1), Committed: true},
				Write{TxnVT: fvt(3, 1), Origin: 1, Updates: []Update{{Target: fobj(2, 5), Op: OpSet{Value: "v"}}}},
				FastWrite{TxnVT: fvt(10, 2), Origin: 2, Updates: []Update{{Target: fobj(1, 1), Op: OpAdd{Delta: 1.5}}}},
			}},
	}
}

// retiredEncodings are REPAIR-PROPOSE, REPAIR-ACK and REPAIR-DECIDE (tags
// 11-13) as the codec encoded them before the epoch repair protocol was
// retired, then the baseline messages (retiredBaselineEncodings): bytes an
// old peer or an old log can still present, which the decoder must reject.
func retiredEncodings() [][]byte {
	return append([][]byte{
		[]byte("\v\x02\x01\x02\x14\x02\x02\x02\x03"),
		[]byte("\f\x02\x01\x03\x02\x12\x01\x13\x03"),
		[]byte("\r\x02\x01\x02\x14\x02\x01\x12\x01"),
	}, retiredBaselineEncodings()...)
}

// retiredBaselineEncodings are GVT-UPDATE, GVT-ACK, GVT-TOKEN, CEN-WRITE
// and CEN-ECHO (tags 14-18) as the codec encoded them before the baseline
// messages lost their binary encoding.
func retiredBaselineEncodings() [][]byte {
	return [][]byte{
		[]byte("\x0e\x02\x01\x01\x01x\x01\n"),
		[]byte("\x0f\x02\x01\x02"),
		[]byte("\x10\x03\x02\x01\x01\x01\x02"),
		[]byte("\x11\x04\x02\x01y\x03\x01v"),
		[]byte("\x12\x04\x01y\x03\x01v"),
	}
}

// seedEncodings encodes every seed message and adds the retired encodings.
func seedEncodings(fatalf func(format string, args ...any)) [][]byte {
	var out [][]byte
	for i, m := range seedMessages() {
		b, err := AppendMessage(nil, m)
		if err != nil {
			fatalf("encode seed %d (%s): %v", i, m.Kind(), err)
		}
		out = append(out, b)
	}
	return append(out, retiredEncodings()...)
}

// FuzzDecodeMessage checks that DecodeMessage never panics on arbitrary
// input, never reads past its buffer, and that anything it accepts
// survives an encode/decode round trip.
func FuzzDecodeMessage(f *testing.F) {
	for _, b := range seedEncodings(f.Fatalf) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, used, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if used < 1 || used > len(data) {
			t.Fatalf("DecodeMessage used %d of %d bytes", used, len(data))
		}
		re, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", m.Kind(), err)
		}
		m2, used2, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", m.Kind(), err)
		}
		if used2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", used2, len(re))
		}
		// Structural equality is the goal; NaN payloads make DeepEqual
		// lie (NaN != NaN), so byte-identical re-encodings also pass.
		if !reflect.DeepEqual(m, m2) {
			re2, err := AppendMessage(nil, m2)
			if err != nil || !bytes.Equal(re, re2) {
				t.Fatalf("round trip changed the message:\n first: %#v\nsecond: %#v", m, m2)
			}
		}
	})
}

// seedCorpusDir holds the committed seed corpus of FuzzDecodeMessage.
var seedCorpusDir = filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")

// seedCorpus returns the seed corpus files, name to content, in the
// format `go test fuzz v1`.
func seedCorpus(fatalf func(format string, args ...any)) map[string]string {
	files := map[string]string{}
	for i, b := range seedEncodings(fatalf) {
		files[fmt.Sprintf("seed-%02d", i)] = fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
	}
	return files
}

// TestWriteSeedCorpus writes the seed corpus. Run with -writecorpus after
// changing the codec or the seed set.
func TestWriteSeedCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("run with -writecorpus to regenerate the seed corpus")
	}
	if err := os.MkdirAll(seedCorpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range seedCorpus(t.Fatalf) {
		if err := os.WriteFile(filepath.Join(seedCorpusDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeedCorpusCurrent fails when the committed seed corpus differs from
// what TestWriteSeedCorpus would write, so a codec change cannot leave the
// fuzzer starting from stale bytes.
func TestSeedCorpusCurrent(t *testing.T) {
	want := seedCorpus(t.Fatalf)
	committed, err := filepath.Glob(filepath.Join(seedCorpusDir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		if _, ok := want[filepath.Base(path)]; !ok {
			t.Errorf("%s is not a seed any more", path)
		}
	}
	for name, content := range want {
		got, err := os.ReadFile(filepath.Join(seedCorpusDir, name))
		if err != nil || string(got) != content {
			t.Errorf("seed %s is stale or missing", name)
		}
	}
	if t.Failed() {
		t.Log("regenerate: go test ./internal/wire -run TestWriteSeedCorpus -writecorpus")
	}
}
