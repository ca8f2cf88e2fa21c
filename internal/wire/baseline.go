package wire

import "decaf/internal/vtime"

// Messages for the baseline systems the paper compares against:
//
//   - GVT* messages implement a Jefferson-style Global-Virtual-Time sweep
//     commit (Time Warp / ORESTE / COAST lineage, paper §5.1.3 and §6):
//     updates apply optimistically everywhere and commit only when a
//     token-ring sweep proves no straggler below their VT can exist.
//
//   - Cen* messages implement the non-replicated (centralized)
//     architecture of paper §1: a single server owns the state and every
//     client action round-trips to it.
//
// Both baselines run only over the in-memory network (internal/sim), so
// these messages have no binary encoding: AppendMessage refuses them, and
// their former tags (14–18) decode as unknown. They stay in this package
// because Message is a closed set (isMessage is unexported), and the
// simulator's GVT traces name each message by its Go type (%T), which a
// move to another package would change.

// GVTUpdate propagates a baseline write to all sites of the group.
type GVTUpdate struct {
	VT    vtime.VT
	From  vtime.SiteID
	Name  string
	Value any
}

func (GVTUpdate) isMessage() {}

// Kind implements Message.
func (GVTUpdate) Kind() string { return "GVT-UPDATE" }

// GVTAck acknowledges receipt of a GVTUpdate; the writer keeps the
// transaction in its uncommitted set until every peer acknowledged, which
// makes the token sweep sound with respect to in-transit messages.
type GVTAck struct {
	VT   vtime.VT
	From vtime.SiteID
}

func (GVTAck) isMessage() {}

// Kind implements Message.
func (GVTAck) Kind() string { return "GVT-ACK" }

// GVTToken circulates the ring accumulating the minimum uncommitted VT;
// when a round completes, the accumulated minimum becomes the new global
// virtual time and rides the next token so every site can commit below it.
type GVTToken struct {
	Round uint64
	// Min accumulates the minimum uncommitted VT seen this round.
	Min vtime.VT
	// MinValid distinguishes "no uncommitted work" from the zero VT.
	MinValid bool
	// GVT is the last completed round's result.
	GVT vtime.VT
}

func (GVTToken) isMessage() {}

// Kind implements Message.
func (GVTToken) Kind() string { return "GVT-TOKEN" }

// CenWrite asks the central server to apply an update.
type CenWrite struct {
	Seq   uint64
	From  vtime.SiteID
	Name  string
	Value any
}

func (CenWrite) isMessage() {}

// Kind implements Message.
func (CenWrite) Kind() string { return "CEN-WRITE" }

// CenEcho is the server's state notification to clients (including the
// writer, whose GUI updates only on the echo — the responsiveness cost of
// the non-replicated architecture).
type CenEcho struct {
	Seq   uint64
	Name  string
	Value any
}

func (CenEcho) isMessage() {}

// Kind implements Message.
func (CenEcho) Kind() string { return "CEN-ECHO" }
