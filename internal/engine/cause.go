package engine

import (
	"fmt"

	"decaf/internal/ids"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// causeKind names why a primary copy denied a guess or an origin aborted
// a transaction.
type causeKind uint8

const (
	causeText          causeKind = iota // text: a reason formatted where it arose
	causeUnknownObject                  // obj: an entry named an object this site lacks
	causePathRemoved                    // path: the entry's path was removed
	causePathPending                    // path: the entry's path has not arrived (transient)
	causeRLCommitted                    // iv, obj: a committed update in a committed-only check's interval
	causeRLPending                      // iv, obj: a pending update in a committed-only check's interval (transient)
	causeRL                             // iv, obj: an update in the read interval
	causeGraphRL                        // iv, obj: a graph change in the graph read interval
	causeNC                             // vt, obj: a write inside another owner's reservation
	causeGraphNC                        // vt, obj: a graph write inside another owner's graph reservation
	causeRCReadAborted                  // vt: the transaction read a value of aborted transaction vt
	causeRCAborted                      // vt: a transaction whose value was read aborted
	causeDeniedBy                       // site, text: a remote primary's denial and its reason
)

// cause is why a guess was denied or a transaction aborted, kept as the
// values its text names. The text is built only by String, where
// something reads it: a Confirm's Reason, a JoinReply, a trace, a debug
// log or the submitter's error. A denial nobody reads formats nothing.
// Verdicts and decisions carry a *cause, nil for ok and commit, so the
// common path pays for a pointer and a denial for one allocation.
type cause struct {
	kind causeKind
	obj  ids.ObjectID
	iv   vtime.Interval
	vt   vtime.VT
	path wire.Path
	site vtime.SiteID
	text string
}

// textCause wraps a reason already formatted where it arose (a rare
// path: an authorization error, a failed primary, a join denial).
func textCause(text string) *cause { return &cause{kind: causeText, text: text} }

// delegateDenied is the cause of an origin's transaction that its
// delegate decided to abort (learn). It is shared: causes are never
// written after they are made.
var delegateDenied = textCause("delegate denied")

// String returns the cause's text; a nil cause reads "".
func (c *cause) String() string {
	if c == nil {
		return ""
	}
	switch c.kind {
	case causeText:
		return c.text
	case causeUnknownObject:
		return fmt.Sprintf("unknown object %s", c.obj)
	case causePathRemoved:
		return fmt.Sprintf("path %s removed", c.path)
	case causePathPending:
		return fmt.Sprintf("transient: path %s not yet present", c.path)
	case causeRLCommitted:
		return fmt.Sprintf("RL: committed update in %s for %s", c.iv, c.obj)
	case causeRLPending:
		return fmt.Sprintf("transient: pending update in %s for %s", c.iv, c.obj)
	case causeRL:
		return fmt.Sprintf("RL: update in %s for %s", c.iv, c.obj)
	case causeGraphRL:
		return fmt.Sprintf("RL: graph change in %s for %s", c.iv, c.obj)
	case causeNC:
		return fmt.Sprintf("NC: write at %s conflicts with reservation on %s", c.vt, c.obj)
	case causeGraphNC:
		return fmt.Sprintf("NC: graph reservation conflict at %s on %s", c.vt, c.obj)
	case causeRCReadAborted:
		return fmt.Sprintf("RC: read value of aborted txn %s", c.vt)
	case causeRCAborted:
		return fmt.Sprintf("RC: txn %s aborted", c.vt)
	case causeDeniedBy:
		return fmt.Sprintf("denied by %s: %s", c.site, c.text)
	}
	return ""
}
