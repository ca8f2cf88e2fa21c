package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"decaf/internal/ids"
	"decaf/internal/vtime"
)

func sampleCheckpoint() Checkpoint {
	vt := vtime.VT{Time: 42, Site: 3}
	removed := vtime.VT{Time: 43, Site: 1}
	return Checkpoint{
		Site:    3,
		NextSeq: 17,
		Clock:   vtime.VT{Time: 99, Site: 3},
		Seq:     5,
		Floors:  []SyncFloor{{Site: 1, Time: 80}, {Site: 2, Time: 0}},
		Objects: []CheckpointObject{
			{
				ID:      ids.ObjectID{Site: 1, Seq: 1},
				Kind:    KindInt,
				Desc:    "reg",
				Value:   int64(7),
				ValueVT: vt,
				Graph:   sampleGraph(),
				GraphVT: vt,
			},
			{
				ID:   ids.ObjectID{Site: 1, Seq: 2},
				Kind: KindTuple,
				Desc: "tup",
				Children: []ChildImage{
					{Slot: PathElem{IsKey: true, Key: "name", Tag: ElemTag{VT: vt}}, InsertVT: vt, Kind: KindString, Value: "x", ValueVT: vt},
					{Slot: PathElem{IsKey: true, Key: "inner", Tag: ElemTag{VT: vt}}, InsertVT: vt, Kind: KindList, Children: []ChildImage{
						{Slot: PathElem{Tag: ElemTag{VT: vt, N: 1}}, InsertVT: vt, Kind: KindInt, Value: int64(1), ValueVT: vt},
						{Slot: PathElem{Tag: ElemTag{VT: vt, N: 2}}, InsertVT: vt, Removals: []vtime.VT{removed}, Kind: KindInt},
					}},
				},
			},
		},
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	b, err := EncodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, want)
	}
}

func TestCheckpointCodecDeterministic(t *testing.T) {
	cp := sampleCheckpoint()
	a, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("checkpoint encoding is not deterministic")
	}
}

// TestCheckpointMagicDisjointFromGob pins why the magic starts with 0x00:
// a gob stream never does (its leading message-length uvarint is nonzero),
// so a version-1 checkpoint, which was a gob stream, is rejected with an
// error rather than misread. A checkpoint of an older hand-codec version
// (2: live children only, in a layout of its own) is rejected the same
// way, by the version byte.
func TestCheckpointMagicDisjointFromGob(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct{ X int }{1}); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] == 0 {
		t.Fatal("gob stream starts with 0x00; magic sniffing is unsound")
	}
	if _, err := DecodeCheckpoint(buf.Bytes()); err == nil {
		t.Fatal("gob stream decoded as a checkpoint")
	}
	if _, err := DecodeCheckpoint(nil); err == nil {
		t.Fatal("DecodeCheckpoint(nil) should fail")
	}
	v2, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	v2[len(checkpointMagic)-1] = 2
	if _, err := DecodeCheckpoint(v2); err == nil {
		t.Fatal("version-2 checkpoint decoded")
	}
}

func TestCheckpointCorruptInput(t *testing.T) {
	b, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(checkpointMagic); cut < len(b); cut += 3 {
		if _, err := DecodeCheckpoint(b[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}
