// Package history implements per-object versioned value histories and
// write-free reservation tables, the data structures behind DECAF's
// optimistic concurrency control (paper §3).
//
// Every model object keeps a History: a set of (value, VT) pairs sorted by
// virtual time, where the value with the latest VT is the current value.
// The primary copy of an object additionally keeps a Reservations table of
// write-free intervals: when it confirms a "read latest" (RL) guess for an
// interval (tR, tT], it reserves that interval so no conflicting write can
// later be confirmed inside it; a "no conflict" (NC) guess for a write at
// tT checks that no other transaction's reservation contains tT.
package history

import (
	"fmt"
	"sort"

	"decaf/internal/vtime"
)

// Status is the commit status of a version.
type Status int

// Version commit states. A version is Pending from the moment the
// optimistic update is applied until its transaction's summary outcome
// arrives.
const (
	Pending Status = iota + 1
	Committed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Committed:
		return "committed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Version is one entry in a value history: the value written by the
// transaction at virtual time VT, with its current commit status.
// Aborted versions are removed from the history rather than retained.
type Version struct {
	VT     vtime.VT
	Value  any
	Status Status
	// ReadVT is tR of the writing transaction — the VT of the version it
	// overwrote (zero when unknown; equal to VT for blind writes). The
	// view engine uses it to tell whether the writer's own RL
	// reservation covers a snapshot interval (paper §5.1.2).
	ReadVT vtime.VT
	// fold, when non-nil, marks a commutative (merge) version: its Value
	// is fold(predecessor's value, delta) rather than absolute. Value is
	// kept eagerly recomputed, so reads never consult fold; it is
	// re-invoked only when predecessors change (out-of-order insert,
	// abort, overwrite).
	fold  Fold
	delta any
	// materialized marks a merge version whose dropped predecessors were
	// folded into Value by GC. It is no longer recomputable (fold is
	// nil), but unlike a genuine absolute write it must still absorb
	// commutative versions that arrive below it: their deltas fold
	// directly into Value (legal precisely because merges commute).
	materialized bool
}

// Fold derives a merge version's value from its predecessor's value (nil
// when it has none) and the version's delta, e.g. a counter add. Merges
// commute: folding the same deltas in any order gives the same value.
type Fold func(prev, delta any) any

// History is a virtual-time-indexed set of versions of a single model
// object. The zero value is an empty history ready to use.
//
// History is not safe for concurrent use; the engine confines each history
// to its site's event loop.
type History struct {
	// versions is sorted by VT ascending. Aborted versions are deleted.
	versions []Version
	// folded records the VTs of merge versions that GC absorbed into a
	// materialized base. Versions present in the slice reject duplicate
	// inserts by VT lookup; once GC drops a merge version that record is
	// gone, and a duplicated Write for it would re-fold its delta into
	// the base (merges commute, so the fold succeeds — and the value
	// silently diverges from other replicas). The set is retained
	// forever, like the engine's per-txn outcome map: VTs are globally
	// unique, so membership is a permanent proof of "already applied
	// here". One entry per GC'd commutative update; absolute versions
	// need no entry because a duplicate below the base is shadowed by
	// it rather than folded in.
	folded map[vtime.VT]struct{}
	// shadow is the VT of the latest absolute version GC dropped below
	// the retained base. In VT order that write overwrote every merge
	// at or below it, so a committed merge straggler arriving there must
	// not fold into a materialized base; one above it must.
	shadow vtime.VT
}

// Len returns the number of retained versions.
func (h *History) Len() int { return len(h.versions) }

// search returns the index of the first version with VT >= v.
func (h *History) search(v vtime.VT) int {
	return sort.Search(len(h.versions), func(i int) bool {
		return !h.versions[i].VT.Less(v)
	})
}

// Insert records a new version written at vt. It returns an error if a
// version at exactly vt already exists (virtual times are globally unique,
// so a duplicate indicates a duplicated message).
func (h *History) Insert(vt vtime.VT, value any, st Status) error {
	return h.InsertRead(vt, value, st, vtime.Zero)
}

// InsertRead is Insert carrying the writer's read time tR.
func (h *History) InsertRead(vt vtime.VT, value any, st Status, readVT vtime.VT) error {
	i := h.search(vt)
	if i < len(h.versions) && h.versions[i].VT == vt {
		return fmt.Errorf("history: duplicate version at %s", vt)
	}
	h.versions = append(h.versions, Version{})
	copy(h.versions[i+1:], h.versions[i:])
	h.versions[i] = Version{VT: vt, Value: value, Status: st, ReadVT: readVT}
	// An out-of-order absolute insert changes what any merge versions
	// directly above it derive from.
	h.recomputeFrom(i + 1)
	return nil
}

// InsertMerge records a commutative version at vt whose value is
// merge(predecessor's value). It is InsertFold with merge as the delta,
// for a caller whose merge is a closure.
func (h *History) InsertMerge(vt vtime.VT, st Status, readVT vtime.VT, merge func(prev any) any) error {
	if merge == nil {
		return fmt.Errorf("history: nil merge for version at %s", vt)
	}
	return h.InsertFold(vt, st, readVT, callMerge, merge)
}

// callMerge is the Fold of a version inserted by InsertMerge.
func callMerge(prev, merge any) any { return merge.(func(prev any) any)(prev) }

// InsertFold records a commutative version at vt whose value is
// fold(predecessor's value, delta) (e.g. a counter increment). The
// version's value stays correct under out-of-order arrival: whenever a
// predecessor changes, the chain of merge versions above it is recomputed.
func (h *History) InsertFold(vt vtime.VT, st Status, readVT vtime.VT, fold Fold, delta any) error {
	if fold == nil {
		return fmt.Errorf("history: nil fold for version at %s", vt)
	}
	if _, dup := h.folded[vt]; dup {
		return fmt.Errorf("history: duplicate version at %s (already folded into materialized base)", vt)
	}
	i := h.search(vt)
	if i < len(h.versions) && h.versions[i].VT == vt {
		return fmt.Errorf("history: duplicate version at %s", vt)
	}
	h.versions = append(h.versions, Version{})
	copy(h.versions[i+1:], h.versions[i:])
	h.versions[i] = Version{VT: vt, Status: st, ReadVT: readVT, fold: fold, delta: delta}
	h.recomputeFrom(i)
	// A committed merge landing below a GC-materialized base would be
	// shadowed by it; fold the delta in instead. Pending merges fold at
	// Commit time (an abort must leave the base untouched).
	if st == Committed {
		h.foldIntoMaterialized(i)
	}
	return nil
}

// foldIntoMaterialized folds the delta of the merge version at index i
// into the materialized base (if any) that shadows it, and propagates the
// change to the merge run above the base.
func (h *History) foldIntoMaterialized(i int) {
	v := &h.versions[i]
	if v.VT.LessEq(h.shadow) {
		return
	}
	j := i
	for j < len(h.versions) && h.versions[j].fold != nil {
		j++
	}
	if j >= len(h.versions) || !h.versions[j].materialized {
		return
	}
	h.versions[j].Value = v.fold(h.versions[j].Value, v.delta)
	h.recomputeFrom(j + 1)
}

// recomputeFrom re-derives the values of the run of merge versions starting
// at index i. The run ends at the first absolute (nil-fold) version, whose
// value does not depend on its predecessors.
func (h *History) recomputeFrom(i int) {
	for ; i < len(h.versions); i++ {
		v := &h.versions[i]
		if v.fold == nil {
			return
		}
		var prev any
		if i > 0 {
			prev = h.versions[i-1].Value
		}
		v.Value = v.fold(prev, v.delta)
	}
}

// Current returns the version with the latest virtual time, i.e. the
// current value of the object. ok is false for an empty history.
func (h *History) Current() (v Version, ok bool) {
	if len(h.versions) == 0 {
		return Version{}, false
	}
	return h.versions[len(h.versions)-1], true
}

// CurrentCommitted returns the latest committed version, skipping any
// pending versions above it. ok is false when no committed version exists.
func (h *History) CurrentCommitted() (v Version, ok bool) {
	for i := len(h.versions) - 1; i >= 0; i-- {
		if h.versions[i].Status == Committed {
			return h.versions[i], true
		}
	}
	return Version{}, false
}

// At returns the version in effect at virtual time vt: the version with the
// greatest VT less than or equal to vt. ok is false when no version exists
// at or before vt. This is the read a snapshot at tS = vt performs.
func (h *History) At(vt vtime.VT) (v Version, ok bool) {
	i := h.search(vt)
	// i points at first version >= vt; the version in effect is at i if
	// exactly equal, else i-1.
	if i < len(h.versions) && h.versions[i].VT == vt {
		return h.versions[i], true
	}
	if i == 0 {
		return Version{}, false
	}
	return h.versions[i-1], true
}

// CommittedAt returns the committed version in effect at vt, skipping
// pending versions.
func (h *History) CommittedAt(vt vtime.VT) (v Version, ok bool) {
	i := h.search(vt)
	if i < len(h.versions) && h.versions[i].VT == vt {
		i++
	}
	for j := i - 1; j >= 0; j-- {
		if h.versions[j].Status == Committed {
			return h.versions[j], true
		}
	}
	return Version{}, false
}

// Get returns the version written at exactly vt.
func (h *History) Get(vt vtime.VT) (v Version, ok bool) {
	i := h.search(vt)
	if i < len(h.versions) && h.versions[i].VT == vt {
		return h.versions[i], true
	}
	return Version{}, false
}

// SetValue replaces the value of the version written at exactly vt (a
// transaction overwriting its own earlier write). It reports whether such
// a version existed.
func (h *History) SetValue(vt vtime.VT, value any) bool {
	i := h.search(vt)
	if i < len(h.versions) && h.versions[i].VT == vt {
		h.versions[i].Value = value
		// An overwrite is absolute even if the original write was a
		// merge; and it changes what merge versions above derive from.
		h.versions[i].fold, h.versions[i].delta = nil, nil
		h.versions[i].materialized = false
		h.recomputeFrom(i + 1)
		return true
	}
	return false
}

// Commit marks the version written at vt as committed. It reports whether
// such a version existed.
func (h *History) Commit(vt vtime.VT) bool {
	i := h.search(vt)
	if i < len(h.versions) && h.versions[i].VT == vt {
		if h.versions[i].Status == Committed {
			return true
		}
		h.versions[i].Status = Committed
		// A merge version deciding below a materialized base folds its
		// delta in now (see InsertFold).
		if h.versions[i].fold != nil {
			h.foldIntoMaterialized(i)
		}
		return true
	}
	return false
}

// Abort removes the version written at vt (rollback of an aborted
// transaction). It reports whether such a version existed.
func (h *History) Abort(vt vtime.VT) bool {
	i := h.search(vt)
	if i < len(h.versions) && h.versions[i].VT == vt {
		h.versions = append(h.versions[:i], h.versions[i+1:]...)
		h.recomputeFrom(i)
		return true
	}
	return false
}

// HasVersionIn reports whether any version other than one written by
// `owner` exists in the half-open interval iv. This is the primary copy's
// RL guess check: the interval (tR, tT] must be write-free.
func (h *History) HasVersionIn(iv vtime.Interval, owner vtime.VT) bool {
	for i := h.search(iv.Lo); i < len(h.versions); i++ {
		v := h.versions[i]
		if !v.VT.LessEq(iv.Hi) {
			break
		}
		if !iv.Contains(v.VT) {
			continue
		}
		if v.VT != owner {
			return true
		}
	}
	return false
}

// HasCommittedIn reports whether any committed version other than one at
// `owner` lies in iv. Pessimistic view snapshots use this form of the RL
// check: the interval since lastNotifiedVT must be free of committed
// updates.
func (h *History) HasCommittedIn(iv vtime.Interval, owner vtime.VT) bool {
	for i := h.search(iv.Lo); i < len(h.versions); i++ {
		v := h.versions[i]
		if !v.VT.LessEq(iv.Hi) {
			break
		}
		if iv.Contains(v.VT) && v.Status == Committed && v.VT != owner {
			return true
		}
	}
	return false
}

// AppendPendingReadsAcross appends to dst, in VT order, the VTs of the
// pending versions other than one at vt whose write-free interval
// (ReadVT, VT] contains vt, and returns the result. A blind write
// (ReadVT = VT) has no such interval. It copies nothing else, so a caller
// that acts on the versions it names is free to change the history.
func (h *History) AppendPendingReadsAcross(dst []vtime.VT, vt vtime.VT) []vtime.VT {
	for _, v := range h.versions {
		if v.Status != Pending || v.VT == vt || v.ReadVT == v.VT {
			continue
		}
		if (vtime.Interval{Lo: v.ReadVT, Hi: v.VT}).Contains(vt) {
			dst = append(dst, v.VT)
		}
	}
	return dst
}

// Versions returns a copy of the retained versions in VT order, for
// inspection and tests.
func (h *History) Versions() []Version {
	out := make([]Version, len(h.versions))
	copy(out, h.versions)
	return out
}

// GC discards versions made obsolete by commits (paper §3: "Committal
// makes old values no longer needed for view snapshots or for rollback
// after abort"). Specifically it drops every version older than the latest
// committed version that is itself older than `floor`. Versions at or
// above floor are retained because a straggling snapshot may still read
// them; callers pass the minimum VT any outstanding snapshot or any RL
// check could still use, or the latest committed VT to keep only that.
//
// It returns the number of versions discarded. The latest committed
// version is always retained.
func (h *History) GC(floor vtime.VT) int {
	// Fast path: pruning needs a committed version at index >= 1 with
	// VT <= floor; a steady-state history (already pruned to its latest
	// committed version plus pending tail) exits without scanning.
	if len(h.versions) <= 1 || !h.versions[1].VT.LessEq(floor) {
		return 0
	}
	// Find latest committed version at or below floor.
	keep := -1
	for i := 0; i < len(h.versions); i++ {
		v := h.versions[i]
		if !v.VT.LessEq(floor) {
			break
		}
		if v.Status == Committed {
			keep = i
		}
	}
	if keep <= 0 {
		return 0
	}
	dropped := keep
	// The retained base becomes the history's floor: materialize its
	// (already computed) value so it no longer derives from dropped
	// predecessors. A materialized MERGE base keeps absorbing committed
	// merge stragglers that arrive below it (foldIntoMaterialized); a
	// genuine absolute base shadows them, exactly as the full history
	// would have.
	if h.versions[keep].fold != nil {
		h.versions[keep].fold, h.versions[keep].delta = nil, nil
		h.versions[keep].materialized = true
	}
	// Remember every dropped merge VT (including old materialized bases,
	// whose own write was a merge): their deltas now live only inside
	// the base value, and a duplicated message must not fold them in
	// twice. See the folded field's doc. The latest dropped absolute
	// version becomes the shadow.
	for i := 0; i < keep; i++ {
		v := h.versions[i]
		if v.fold == nil && !v.materialized {
			h.shadow = v.VT
			continue
		}
		if h.folded == nil {
			h.folded = make(map[vtime.VT]struct{})
		}
		h.folded[v.VT] = struct{}{}
	}
	h.versions = append(h.versions[:0], h.versions[keep:]...)
	return dropped
}
