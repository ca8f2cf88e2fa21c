package engine

import (
	"fmt"
	"testing"

	"decaf/internal/ids"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// TestCauseStringMatchesFormat pins every cause kind's text to the
// format string that built it eagerly before causes were typed, so
// traces, Confirm.Reason, JoinReply.Reason and final errors read the same.
func TestCauseStringMatchesFormat(t *testing.T) {
	obj := ids.ObjectID{Site: 1, Seq: 7}
	iv := vtime.Interval{Lo: pcRead, Hi: pcVT}
	path := wire.Path{{IsKey: true, Key: "a", Tag: wire.ElemTag{VT: vtime.VT{Time: 3, Site: 1}}}}
	cases := []struct {
		c    *cause
		want string
	}{
		{nil, ""},
		{&cause{}, ""},
		{textCause("delegate denied"), "delegate denied"},
		{&cause{kind: causeUnknownObject, obj: obj}, fmt.Sprintf("unknown object %s", obj)},
		{&cause{kind: causePathRemoved, path: path}, fmt.Sprintf("path %s removed", path)},
		{&cause{kind: causePathPending, path: path}, fmt.Sprintf("transient: path %s not yet present", path)},
		{&cause{kind: causeRLCommitted, iv: iv, obj: obj}, fmt.Sprintf("RL: committed update in %s for %s", iv, obj)},
		{&cause{kind: causeRLPending, iv: iv, obj: obj}, fmt.Sprintf("transient: pending update in %s for %s", iv, obj)},
		{&cause{kind: causeRL, iv: iv, obj: obj}, fmt.Sprintf("RL: update in %s for %s", iv, obj)},
		{&cause{kind: causeGraphRL, iv: iv, obj: obj}, fmt.Sprintf("RL: graph change in %s for %s", iv, obj)},
		{&cause{kind: causeNC, vt: pcVT, obj: obj}, fmt.Sprintf("NC: write at %s conflicts with reservation on %s", pcVT, obj)},
		{&cause{kind: causeGraphNC, vt: pcVT, obj: obj}, fmt.Sprintf("NC: graph reservation conflict at %s on %s", pcVT, obj)},
		{&cause{kind: causeRCReadAborted, vt: pcOther}, fmt.Sprintf("RC: read value of aborted txn %s", pcOther)},
		{&cause{kind: causeRCAborted, vt: pcOther}, fmt.Sprintf("RC: txn %s aborted", pcOther)},
		{&cause{kind: causeDeniedBy, site: 3, text: "NC: x"}, fmt.Sprintf("denied by %s: %s", vtime.SiteID(3), "NC: x")},
	}
	covered := map[causeKind]bool{}
	for _, tc := range cases {
		if tc.c != nil {
			covered[tc.c.kind] = true
		}
		if got := tc.c.String(); got != tc.want {
			t.Errorf("%+v: String() = %q, want %q", tc.c, got, tc.want)
		}
	}
	for k := causeText; k <= causeDeniedBy; k++ {
		if !covered[k] {
			t.Errorf("cause kind %d has no row", k)
		}
	}
}

// TestUnreadCausesFormatNothing checks that a denial builds no text
// where nothing reads it: an NC-denied checkGuess allocates its cause and
// nothing else, and answerWrite's denial allocates no more than the
// Confirm it must send, with debug logging and tracing off.
func TestUnreadCausesFormatNothing(t *testing.T) {
	e := newPCEnv(t)
	s, x := e.s, e.objs["x"]
	x.res.Reserve(vtime.Interval{Lo: pcRead, Hi: pcOwner}, pcOwner)

	g := guess{target: x, groot: x, readVT: pcRead, graphVT: pcGraph, write: true}
	var v verdict
	if allocs := testing.AllocsPerRun(100, func() { v = s.checkGuess(nil, pcVT, g) }); allocs != 1 {
		t.Errorf("NC-denied checkGuess: %v allocations, want 1 (the cause, no text)", allocs)
	}
	if v.ok || v.cause.kind != causeNC {
		t.Fatalf("checkGuess verdict %+v, want an NC denial", v)
	}

	// The Confirm's Reason is read, so its text is built. A text cause
	// builds it without fmt, whose buffer pool makes allocation counts
	// vary under the race detector; the comparison stays exact.
	v = verdict{cause: textCause("NC: write conflicts")}
	task := &writeTask{m: wire.Write{TxnVT: pcVT, Origin: 2, NeedsConfirm: true}, st: &txnState{vt: pcVT, origin: 2}, verdict: v}
	send := testing.AllocsPerRun(100, func() {
		s.send(2, wire.Confirm{TxnVT: pcVT, Reason: v.cause.String()})
		s.outbox[2] = s.outbox[2][:0]
	})
	answer := testing.AllocsPerRun(100, func() {
		s.answerWrite(task)
		s.outbox[2] = s.outbox[2][:0]
	})
	if answer > send {
		t.Errorf("answerWrite denial: %v allocations, want at most the %v of its Confirm", answer, send)
	}
	s.answerWrite(task)
	if c := lastSent[wire.Confirm](e, 2); c.OK || c.Reason != v.cause.String() {
		t.Fatalf("answerWrite sent %+v, want a denial reading %q", c, v.cause.String())
	}
}
