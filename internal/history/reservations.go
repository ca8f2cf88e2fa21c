package history

import (
	"slices"

	"decaf/internal/vtime"
)

// Reservation is a write-free interval reserved at a primary copy on
// behalf of the transaction (or snapshot) with virtual time Owner. While
// the reservation stands, confirming any other transaction's write inside
// the interval would invalidate Owner's confirmed read, so the NC check
// denies such writes.
type Reservation struct {
	Interval vtime.Interval
	Owner    vtime.VT
}

// Reservations is the write-free reservation table a primary copy keeps
// for one object (or for its replication graph). The zero value is an
// empty table ready to use. Not safe for concurrent use.
type Reservations struct {
	rs []Reservation // sorted by (Interval.Hi, Owner): GC drops a prefix
}

// Len returns the number of reservations held.
func (r *Reservations) Len() int { return len(r.rs) }

// Reserve records a write-free reservation of iv on behalf of owner.
// Empty intervals (e.g. a blind write's (tT, tT]) are ignored. The new
// reservation goes after every one that does not sort after it, so
// reservations under one (Hi, Owner) key keep their arrival order.
//
// The position is found scanning back from the end: reservations reach
// up to the rising VTs of transactions and snapshots, so most sort last
// and are appended, and the rest land a few entries from the end. The
// scan is never longer than the shift the insertion makes anyway.
func (r *Reservations) Reserve(iv vtime.Interval, owner vtime.VT) {
	if iv.Empty() {
		return
	}
	res := Reservation{Interval: iv, Owner: owner}
	i := len(r.rs)
	for i > 0 && sortsBefore(res, r.rs[i-1]) {
		i--
	}
	r.rs = slices.Insert(r.rs, i, res)
}

// sortsBefore reports whether a sorts strictly before b in the table's
// (Interval.Hi, Owner) order.
func sortsBefore(a, b Reservation) bool {
	if a.Interval.Hi != b.Interval.Hi {
		return a.Interval.Hi.Less(b.Interval.Hi)
	}
	return a.Owner.Less(b.Owner)
}

// Conflicts reports whether a write at vt by the transaction `writer`
// falls inside a reservation made by a different owner — the NC ("no
// conflict") guess check. A transaction never conflicts with its own
// reservations.
func (r *Reservations) Conflicts(vt vtime.VT, writer vtime.VT) bool {
	for _, res := range r.rs {
		if res.Owner != writer && res.Interval.Contains(vt) {
			return true
		}
	}
	return false
}

// Intersecting returns the owners (other than exclude) of reservations
// whose interval contains vt. A commutative fast-path commit landing at vt
// uses this to find the open RL guesses its write invalidates, so they can
// be demoted to re-validation.
func (r *Reservations) Intersecting(vt vtime.VT, exclude vtime.VT) []vtime.VT {
	var owners []vtime.VT
	for _, res := range r.rs {
		if res.Owner != exclude && res.Interval.Contains(vt) {
			owners = append(owners, res.Owner)
		}
	}
	return owners
}

// Release removes every reservation held by owner (called when the owning
// transaction aborts: its confirmed reads no longer constrain writers).
// It returns the number of reservations removed.
func (r *Reservations) Release(owner vtime.VT) int {
	kept := r.rs[:0]
	removed := 0
	for _, res := range r.rs {
		if res.Owner == owner {
			removed++
			continue
		}
		kept = append(kept, res)
	}
	r.rs = kept
	return removed
}

// GCBelow discards reservations whose entire interval lies at or below
// floor. A reservation only matters to an NC check at a VT inside it, so
// the caller must pass a floor below which no check can still arrive: at
// a primary, the lowest GC floor its replica graph's members have
// announced, not merely its own. It returns the number discarded.
//
// The table is sorted by Hi, so the discarded reservations are a prefix.
func (r *Reservations) GCBelow(floor vtime.VT) int {
	n := 0
	for n < len(r.rs) && r.rs[n].Interval.Hi.LessEq(floor) {
		n++
	}
	r.rs = slices.Delete(r.rs, 0, n)
	return n
}

// All returns a copy of the reservations, for inspection and tests.
func (r *Reservations) All() []Reservation {
	out := make([]Reservation, len(r.rs))
	copy(out, r.rs)
	return out
}
