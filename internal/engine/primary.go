package engine

import (
	"decaf/internal/repgraph"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// Validating at the primary copy (paper §3.1, §3.3; DESIGN.md §16). Every
// site that validates a guess as a primary — an origin hosting the primary
// itself, a remote primary answering a Write or a CONFIRM-READ, either side
// of a join, an association update, a pessimistic view whose primary is
// local — hands checkAtPrimary the wire entries it would send or has
// received. What to do with a denial stays with the caller.

// verdict is a primary copy's answer to one validation request. A
// transient denial may clear without a new VT: a pending update that may
// yet abort, or a path whose structure has not arrived.
type verdict struct {
	ok        bool
	transient bool
	cause     *cause // nil when ok
}

// checkAtPrimary validates at this site the updates and read checks of one
// request for the transaction (or view snapshot) at vt, and reserves what
// it validated. It stops at the first denial.
//
// An update is validated only where its target is the primary copy: of
// the current graph for a value update, of the graph it replaces for a
// graph update (the new graph may already be applied here). A read check
// is validated wherever it is addressed.
//
// Reservations are recorded on st so an abort releases them; st is nil
// for a view snapshot, whose reservations belong to no transaction.
func (s *Site) checkAtPrimary(st *txnState, vt vtime.VT, updates []wire.Update, checks []wire.ReadCheck) verdict {
	for _, u := range updates {
		root, ok := s.objects[u.Target]
		if !ok {
			return verdict{cause: &cause{kind: causeUnknownObject, obj: u.Target}}
		}
		g := guess{groot: root.replicationRoot(), readVT: u.ReadVT, graphVT: u.GraphVT, write: true}
		if _, isGraph := u.Op.(wire.OpGraph); isGraph {
			if old, ok := g.groot.graphHist.At(u.GraphVT); ok {
				if og, ok := old.Value.(*repgraph.Graph); ok {
					if p, has := og.Primary(); has && p != root.id {
						continue
					}
				}
			}
		} else {
			cur, _ := root.currentGraph()
			if p, has := cur.Primary(); !has || p != root.id {
				continue
			}
			var v verdict
			if g.target, v = resolveTarget(root, u.Path); !v.ok {
				return v
			}
		}
		if v := s.checkGuess(st, vt, g); !v.ok {
			return v
		}
	}
	for _, c := range checks {
		root, ok := s.objects[c.Target]
		if !ok {
			return verdict{cause: &cause{kind: causeUnknownObject, obj: c.Target}}
		}
		target, v := resolveTarget(root, c.Path)
		if !v.ok {
			return v
		}
		g := guess{target: target, groot: root.replicationRoot(), readVT: c.ReadVT, graphVT: c.GraphVT,
			committedOnly: c.CommittedOnly, noReserve: c.NoReserve}
		if v := s.checkGuess(st, vt, g); !v.ok {
			return v
		}
	}
	return verdict{ok: true}
}

// resolveTarget finds the object an entry validates against: root, or the
// object at path below it. A removed path is a permanent denial; a path
// that does not resolve here is transient.
func resolveTarget(root *object, path wire.Path) (*object, verdict) {
	if len(path) == 0 {
		return root, verdict{ok: true}
	}
	child, removed, _ := root.resolvePath(path, true)
	if removed {
		return nil, verdict{cause: &cause{kind: causePathRemoved, path: path}}
	}
	if child == nil {
		return nil, verdict{transient: true, cause: &cause{kind: causePathPending, path: path}}
	}
	return child, verdict{ok: true}
}

// guess is one resolved entry of a validation request.
type guess struct {
	target          *object // the value validated against; nil for a graph update
	groot           *object // the replication root whose graph the entry read
	readVT, graphVT vtime.VT
	write           bool
	committedOnly   bool // pessimistic snapshot: only committed updates conflict
	noReserve       bool // optimistic snapshot: answer without reserving
}

// checkGuess applies the primary-copy rule to one entry:
//
//   - RL: no update other than the entry's own in (tR, tT] of the value (a
//     committedOnly check: no committed one, and a pending one is a
//     transient denial);
//   - graph RL: no graph change in (tG, tT];
//   - NC (writes): no other reservation holds tT on what the write writes,
//     the value or, for a graph update, the graph;
//   - on success both intervals are reserved write-free.
func (s *Site) checkGuess(st *txnState, vt vtime.VT, g guess) verdict {
	valIv := vtime.Interval{Lo: g.readVT, Hi: vt}
	if t := g.target; t != nil {
		if g.committedOnly && t.hist.HasCommittedIn(valIv, vt) {
			return verdict{cause: &cause{kind: causeRLCommitted, iv: valIv, obj: t.id}}
		}
		if t.hist.HasVersionIn(valIv, vt) {
			if g.committedOnly {
				return verdict{transient: true, cause: &cause{kind: causeRLPending, iv: valIv, obj: t.id}}
			}
			return verdict{cause: &cause{kind: causeRL, iv: valIv, obj: t.id}}
		}
	}
	graphIv := vtime.Interval{Lo: g.graphVT, Hi: vt}
	if g.groot.graphHist.HasVersionIn(graphIv, vt) {
		return verdict{cause: &cause{kind: causeGraphRL, iv: graphIv, obj: g.groot.id}}
	}
	// A value write does not violate a graph reservation, which keeps an
	// interval free of graph changes only.
	if g.write && g.target != nil && g.target.res.Conflicts(vt, vt) {
		return verdict{cause: &cause{kind: causeNC, vt: vt, obj: g.target.id}}
	}
	if g.write && g.target == nil && g.groot.graphRes.Conflicts(vt, vt) {
		return verdict{cause: &cause{kind: causeGraphNC, vt: vt, obj: g.groot.id}}
	}
	if g.noReserve {
		return verdict{ok: true}
	}
	held := g.groot
	if g.target != nil {
		g.target.res.Reserve(valIv, vt)
		held = g.target
	}
	g.groot.graphRes.Reserve(graphIv, vt)
	if st != nil {
		st.reservedObjs = appendInline(st.reservedObjs, st.reservedInline[:], held)
	}
	return verdict{ok: true}
}
