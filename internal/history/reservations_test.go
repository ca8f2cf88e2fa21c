package history

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"decaf/internal/vtime"
)

func rvt(time uint64, site vtime.SiteID) vtime.VT { return vtime.VT{Time: time, Site: site} }

func riv(lo, hi vtime.VT) vtime.Interval { return vtime.Interval{Lo: lo, Hi: hi} }

func TestReserveIgnoresEmptyIntervals(t *testing.T) {
	var r Reservations
	owner := rvt(5, 1)
	r.Reserve(riv(rvt(3, 1), rvt(3, 1)), owner) // Lo == Hi: a blind write's (tT, tT]
	r.Reserve(riv(rvt(4, 1), rvt(2, 1)), owner) // inverted
	if r.Len() != 0 {
		t.Fatalf("empty intervals reserved: Len = %d", r.Len())
	}
}

func TestConflictsEndpoints(t *testing.T) {
	var r Reservations
	owner := rvt(10, 1)
	writer := rvt(9, 2)
	lo, hi := rvt(3, 1), rvt(8, 1)
	r.Reserve(riv(lo, hi), owner)

	// The interval is half-open (Lo, Hi]: Lo itself is outside, Hi inside.
	if r.Conflicts(lo, writer) {
		t.Error("write at exclusive Lo endpoint conflicted")
	}
	if !r.Conflicts(hi, writer) {
		t.Error("write at inclusive Hi endpoint did not conflict")
	}
	// The site tie-break is part of the order: (3,1) < (3,2) <= (8,1).
	if !r.Conflicts(rvt(3, 2), writer) {
		t.Error("write just above Lo (by site tie-break) did not conflict")
	}
	if r.Conflicts(rvt(8, 2), writer) {
		t.Error("write just above Hi (by site tie-break) conflicted")
	}
}

func TestConflictsOwnerExempt(t *testing.T) {
	var r Reservations
	owner := rvt(10, 1)
	r.Reserve(riv(rvt(3, 1), rvt(8, 1)), owner)
	if r.Conflicts(rvt(5, 1), owner) {
		t.Error("a transaction conflicted with its own reservation")
	}
	if !r.Conflicts(rvt(5, 1), rvt(10, 2)) {
		t.Error("a different writer did not conflict")
	}
}

func TestAdjacentIntervals(t *testing.T) {
	var r Reservations
	a, b, c := rvt(2, 1), rvt(5, 1), rvt(9, 1)
	first, second := rvt(20, 1), rvt(21, 2)
	r.Reserve(riv(a, b), first)
	r.Reserve(riv(b, c), second) // adjacent: (a,b] then (b,c]
	writer := rvt(30, 3)

	// The shared endpoint b belongs to the first interval only, so a
	// writer at b conflicts even if it owns the second reservation.
	if !r.Conflicts(b, second) {
		t.Error("write at shared endpoint did not conflict with the first interval")
	}
	if r.Conflicts(b, first) {
		t.Error("first owner conflicted at its own Hi endpoint")
	}
	if !r.Conflicts(rvt(5, 2), writer) || !r.Conflicts(c, writer) {
		t.Error("interior of second interval did not conflict")
	}
}

func TestOverlappingIntervals(t *testing.T) {
	var r Reservations
	first, second := rvt(20, 1), rvt(21, 2)
	r.Reserve(riv(rvt(2, 1), rvt(6, 1)), first)
	r.Reserve(riv(rvt(4, 1), rvt(9, 1)), second)

	// In the overlap, each owner still conflicts with the other's
	// reservation: owning one of the two is not enough.
	if !r.Conflicts(rvt(5, 1), first) {
		t.Error("first owner did not conflict with second's overlapping reservation")
	}
	if !r.Conflicts(rvt(5, 1), second) {
		t.Error("second owner did not conflict with first's overlapping reservation")
	}
}

func TestRelease(t *testing.T) {
	var r Reservations
	keep, drop := rvt(20, 1), rvt(21, 2)
	r.Reserve(riv(rvt(1, 1), rvt(3, 1)), drop)
	r.Reserve(riv(rvt(2, 1), rvt(5, 1)), keep)
	r.Reserve(riv(rvt(4, 1), rvt(7, 1)), drop)

	if got := r.Release(drop); got != 2 {
		t.Fatalf("Release removed %d, want 2", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after release, want 1", r.Len())
	}
	if r.Conflicts(rvt(6, 1), rvt(30, 3)) {
		t.Error("released reservation still conflicts")
	}
	if !r.Conflicts(rvt(4, 1), rvt(30, 3)) {
		t.Error("surviving reservation no longer conflicts")
	}
	if got := r.Release(drop); got != 0 {
		t.Errorf("second Release removed %d, want 0", got)
	}
}

func TestGCBelowBoundary(t *testing.T) {
	var r Reservations
	owner := rvt(20, 1)
	floor := rvt(5, 1)
	r.Reserve(riv(rvt(1, 1), rvt(5, 1)), owner)      // Hi == floor: collectable
	r.Reserve(riv(rvt(1, 1), rvt(5, 2)), owner)      // Hi just above floor (site tie-break): kept
	r.Reserve(riv(rvt(3, 1), rvt(9, 1)), rvt(21, 2)) // Hi well above: kept

	if got := r.GCBelow(floor); got != 1 {
		t.Fatalf("GCBelow removed %d, want 1", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d after GC, want 2", r.Len())
	}
	for _, res := range r.All() {
		if res.Interval.Hi.LessEq(floor) {
			t.Errorf("reservation with Hi %v survived GC below %v", res.Interval.Hi, floor)
		}
	}
}

// TestReserveKeepsSortedOrder checks the (Hi, Owner) insertion order that
// GCBelow's sequential scan and the table's determinism rely on.
func TestReserveKeepsSortedOrder(t *testing.T) {
	var r Reservations
	// Insert out of order, including two reservations with the same Hi.
	r.Reserve(riv(rvt(1, 1), rvt(9, 1)), rvt(22, 3))
	r.Reserve(riv(rvt(1, 1), rvt(4, 1)), rvt(20, 1))
	r.Reserve(riv(rvt(1, 1), rvt(9, 1)), rvt(21, 2))
	r.Reserve(riv(rvt(1, 1), rvt(6, 1)), rvt(23, 1))

	all := r.All()
	for i := 1; i < len(all); i++ {
		prev, cur := all[i-1], all[i]
		if cur.Interval.Hi.Less(prev.Interval.Hi) {
			t.Fatalf("reservations out of Hi order at %d: %v after %v", i, cur, prev)
		}
		if cur.Interval.Hi == prev.Interval.Hi && cur.Owner.Less(prev.Owner) {
			t.Fatalf("same-Hi reservations out of Owner order at %d: %v after %v", i, cur, prev)
		}
	}
}

// TestReservationsMatchReference interleaves Reserve (in order, out of
// order, at an existing Hi under another owner, empty), Release and
// GCBelow at random, and after every step compares the table with a
// plain slice kept in (Hi, Owner) order by a stable sort and filtered by
// brute force: the contents in order (a key's reservations in arrival
// order), Conflicts and Intersecting at every probe VT, and the counts
// Release and GCBelow return.
func TestReservationsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probes := func(top uint64) []vtime.VT {
		var out []vtime.VT
		for tm := uint64(0); tm <= top+1; tm++ {
			out = append(out, rvt(tm, 1), rvt(tm, 2))
		}
		return out
	}
	byKey := func(a, b Reservation) int {
		if c := a.Interval.Hi.Compare(b.Interval.Hi); c != 0 {
			return c
		}
		return a.Owner.Compare(b.Owner)
	}
	sortVTs := func(vts []vtime.VT) []vtime.VT {
		out := slices.Clone(vts)
		slices.SortFunc(out, vtime.VT.Compare)
		return out
	}
	for round := 0; round < 40; round++ {
		var r Reservations
		var ref []Reservation
		top := uint64(5)
		for step := 0; step < 150; step++ {
			what := ""
			switch op := rng.Intn(10); {
			case op < 6:
				var hi vtime.VT
				switch k := rng.Intn(4); {
				case k == 0 || len(ref) == 0:
					top += uint64(1 + rng.Intn(2))
					hi = rvt(top, vtime.SiteID(1+rng.Intn(2)))
				case k == 1:
					hi = rvt(uint64(rng.Intn(int(top)+1)), vtime.SiteID(1+rng.Intn(2)))
				default:
					hi = ref[rng.Intn(len(ref))].Interval.Hi
				}
				lo := rvt(hi.Time-uint64(rng.Intn(int(hi.Time)+1)), vtime.SiteID(1+rng.Intn(2)))
				if rng.Intn(8) == 0 {
					lo = hi // empty: ignored
				}
				owner := rvt(hi.Time+uint64(rng.Intn(3)), vtime.SiteID(1+rng.Intn(3)))
				r.Reserve(riv(lo, hi), owner)
				if !riv(lo, hi).Empty() {
					ref = append(ref, Reservation{Interval: riv(lo, hi), Owner: owner})
					slices.SortStableFunc(ref, byKey)
				}
				what = fmt.Sprintf("Reserve(%s, %s)", riv(lo, hi), owner)
			case op < 8 && len(ref) > 0:
				owner := ref[rng.Intn(len(ref))].Owner
				want := 0
				ref = slices.DeleteFunc(ref, func(res Reservation) bool {
					if res.Owner == owner {
						want++
						return true
					}
					return false
				})
				what = fmt.Sprintf("Release(%s)", owner)
				if got := r.Release(owner); got != want {
					t.Fatalf("round %d step %d %s removed %d, want %d", round, step, what, got, want)
				}
			default:
				floor := rvt(uint64(rng.Intn(int(top)+1)), vtime.SiteID(1+rng.Intn(2)))
				want := 0
				ref = slices.DeleteFunc(ref, func(res Reservation) bool {
					if res.Interval.Hi.LessEq(floor) {
						want++
						return true
					}
					return false
				})
				what = fmt.Sprintf("GCBelow(%s)", floor)
				if got := r.GCBelow(floor); got != want {
					t.Fatalf("round %d step %d %s removed %d, want %d", round, step, what, got, want)
				}
			}

			if got := r.All(); !slices.Equal(got, ref) {
				t.Fatalf("round %d step %d after %s: table %v, want %v", round, step, what, got, ref)
			}
			if r.Len() != len(ref) {
				t.Fatalf("round %d step %d after %s: Len %d, want %d", round, step, what, r.Len(), len(ref))
			}
			for _, at := range probes(top) {
				writer := rvt(at.Time+1, 3)
				if len(ref) > 0 && rng.Intn(2) == 0 {
					writer = ref[rng.Intn(len(ref))].Owner
				}
				var wantConflict bool
				var wantOwners []vtime.VT
				for _, res := range ref {
					if res.Owner != writer && res.Interval.Contains(at) {
						wantConflict = true
						wantOwners = append(wantOwners, res.Owner)
					}
				}
				if got := r.Conflicts(at, writer); got != wantConflict {
					t.Fatalf("round %d step %d after %s: Conflicts(%s, %s) = %v, want %v", round, step, what, at, writer, got, wantConflict)
				}
				if got := r.Intersecting(at, writer); !slices.Equal(sortVTs(got), sortVTs(wantOwners)) {
					t.Fatalf("round %d step %d after %s: Intersecting(%s, %s) = %v, want %v", round, step, what, at, writer, got, wantOwners)
				}
			}
		}
	}
}
