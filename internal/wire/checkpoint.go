package wire

import (
	"encoding/binary"
	"fmt"

	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
)

// Checkpoint codec (paper §5.3, DESIGN.md §13): the hand codec behind a
// magic + version prefix. The magic starts with 0x00, which no gob stream
// can (gob's leading message-length uvarint is nonzero), so a version-1
// checkpoint, which was a gob stream, fails the magic check with an error,
// and so does a checkpoint of any other version, by its version byte.

// CheckpointVersion is the current on-disk checkpoint format version.
// Version 3 stores a composite as its state image ([]ChildImage),
// removed slots included.
const CheckpointVersion = 3

// checkpointMagic prefixes a checkpoint: 0x00, "DCAFCP", then the format
// version byte.
var checkpointMagic = [8]byte{0x00, 'D', 'C', 'A', 'F', 'C', 'P', CheckpointVersion}

// Checkpoint is a serialized site: every top-level model object with its
// latest committed value, replication graph, and the site's clock and
// counters. Seq pairs the checkpoint with the RecordMark the engine
// appends to its WAL at capture time, so recovery knows where in the log
// the checkpoint's coverage ends. Floors persist the site's anti-entropy
// version floors across restarts.
type Checkpoint struct {
	Site    vtime.SiteID
	NextSeq uint64
	Clock   vtime.VT
	Seq     uint64
	Floors  []SyncFloor
	Objects []CheckpointObject
}

// CheckpointObject is one persisted top-level model object.
type CheckpointObject struct {
	ID      ids.ObjectID
	Kind    ChildKind
	Desc    string
	Value   any // scalar value or []Relationship; nil for composites
	ValueVT vtime.VT
	Graph   repgraph.Wire
	GraphVT vtime.VT
	// Children is a composite's committed state image.
	Children []ChildImage
}

// AppendCheckpoint encodes cp onto b.
func AppendCheckpoint(b []byte, cp Checkpoint) ([]byte, error) {
	var err error
	b = append(b, checkpointMagic[:]...)
	b = appendSite(b, cp.Site)
	b = binary.AppendUvarint(b, cp.NextSeq)
	b = appendVT(b, cp.Clock)
	b = binary.AppendUvarint(b, cp.Seq)
	b = appendSyncFloors(b, cp.Floors)
	b = binary.AppendUvarint(b, uint64(len(cp.Objects)))
	for _, oc := range cp.Objects {
		if b, err = appendCheckpointObject(b, oc); err != nil {
			return b, err
		}
	}
	return b, nil
}

func appendCheckpointObject(b []byte, oc CheckpointObject) ([]byte, error) {
	var err error
	b = appendObj(b, oc.ID)
	b = binary.AppendUvarint(b, uint64(oc.Kind))
	b = appendString(b, oc.Desc)
	if b, err = appendValue(b, oc.Value); err != nil {
		return b, err
	}
	b = appendVT(b, oc.ValueVT)
	b = appendGraph(b, oc.Graph)
	b = appendVT(b, oc.GraphVT)
	return appendImage(b, oc.Children)
}

// EncodeCheckpoint is AppendCheckpoint into a fresh buffer.
func EncodeCheckpoint(cp Checkpoint) ([]byte, error) {
	return AppendCheckpoint(make([]byte, 0, 1024), cp)
}

// DecodeCheckpoint decodes a checkpoint of the current version from b
// (the whole buffer).
func DecodeCheckpoint(b []byte) (Checkpoint, error) {
	if len(b) < len(checkpointMagic) || [8]byte(b[:8]) != checkpointMagic {
		return Checkpoint{}, fmt.Errorf("wire: not a v%d checkpoint", CheckpointVersion)
	}
	r := &reader{b: b, off: len(checkpointMagic)}
	cp := Checkpoint{
		Site:    r.site(),
		NextSeq: r.uvarint(),
		Clock:   r.vt(),
		Seq:     r.uvarint(),
		Floors:  r.syncFloors(),
	}
	if n := r.count(); n > 0 {
		cp.Objects = make([]CheckpointObject, n)
		for i := range cp.Objects {
			cp.Objects[i] = r.checkpointObject()
		}
	}
	if r.err != nil {
		return Checkpoint{}, fmt.Errorf("wire: decode checkpoint: %w", r.err)
	}
	return cp, nil
}

func (r *reader) checkpointObject() CheckpointObject {
	oc := CheckpointObject{
		ID:   r.obj(),
		Kind: ChildKind(r.uvarint()),
		Desc: r.string_(),
	}
	oc.Value = r.value()
	oc.ValueVT = r.vt()
	oc.Graph = r.graph()
	oc.GraphVT = r.vt()
	oc.Children = r.image()
	return oc
}
