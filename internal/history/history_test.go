package history

import (
	"math/rand"
	"testing"
	"testing/quick"

	"decaf/internal/vtime"
)

func vt(t uint64) vtime.VT { return vtime.VT{Time: t, Site: 1} }

func mustInsert(t *testing.T, h *History, at uint64, val any, st Status) {
	t.Helper()
	if err := h.Insert(vt(at), val, st); err != nil {
		t.Fatalf("Insert(%d): %v", at, err)
	}
}

func TestHistoryInsertAndCurrent(t *testing.T) {
	var h History
	if _, ok := h.Current(); ok {
		t.Fatal("empty history has a current value")
	}
	mustInsert(t, &h, 10, "a", Committed)
	mustInsert(t, &h, 30, "c", Pending)
	mustInsert(t, &h, 20, "b", Pending) // out-of-order arrival (straggler)

	cur, ok := h.Current()
	if !ok || cur.Value != "c" || cur.VT != vt(30) {
		t.Fatalf("Current = %+v, want c@30", cur)
	}
	if got := h.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	// Versions must come back sorted.
	vs := h.Versions()
	for i := 1; i < len(vs); i++ {
		if !vs[i-1].VT.Less(vs[i].VT) {
			t.Fatalf("versions not sorted: %v", vs)
		}
	}
}

func TestHistoryDuplicateInsert(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, "a", Pending)
	if err := h.Insert(vt(10), "dup", Pending); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
}

func TestHistoryAt(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, "a", Committed)
	mustInsert(t, &h, 20, "b", Committed)
	mustInsert(t, &h, 30, "c", Pending)

	tests := []struct {
		at     uint64
		want   any
		wantOK bool
	}{
		{5, nil, false},
		{10, "a", true},
		{15, "a", true},
		{20, "b", true},
		{25, "b", true},
		{30, "c", true},
		{99, "c", true},
	}
	for _, tt := range tests {
		v, ok := h.At(vt(tt.at))
		if ok != tt.wantOK || (ok && v.Value != tt.want) {
			t.Errorf("At(%d) = (%v,%v), want (%v,%v)", tt.at, v.Value, ok, tt.want, tt.wantOK)
		}
	}
}

func TestHistoryCommittedAt(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, "a", Committed)
	mustInsert(t, &h, 20, "b", Pending)
	mustInsert(t, &h, 30, "c", Committed)

	v, ok := h.CommittedAt(vt(25))
	if !ok || v.Value != "a" {
		t.Fatalf("CommittedAt(25) = (%v,%v), want a (skipping pending b)", v.Value, ok)
	}
	v, ok = h.CommittedAt(vt(30))
	if !ok || v.Value != "c" {
		t.Fatalf("CommittedAt(30) = (%v,%v), want c", v.Value, ok)
	}
	if _, ok := h.CommittedAt(vt(5)); ok {
		t.Fatal("CommittedAt before first version should fail")
	}
}

func TestHistoryCommitAbort(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, "a", Pending)
	mustInsert(t, &h, 20, "b", Pending)

	if !h.Commit(vt(10)) {
		t.Fatal("Commit(10) failed")
	}
	if h.Commit(vt(99)) {
		t.Fatal("Commit of unknown VT succeeded")
	}
	v, _ := h.Get(vt(10))
	if v.Status != Committed {
		t.Fatalf("status after commit = %v", v.Status)
	}

	if !h.Abort(vt(20)) {
		t.Fatal("Abort(20) failed")
	}
	if h.Abort(vt(20)) {
		t.Fatal("double abort succeeded")
	}
	cur, ok := h.Current()
	if !ok || cur.Value != "a" {
		t.Fatalf("after abort current = %+v, want a", cur)
	}
}

func TestCurrentCommitted(t *testing.T) {
	var h History
	if _, ok := h.CurrentCommitted(); ok {
		t.Fatal("empty history has committed value")
	}
	mustInsert(t, &h, 10, "a", Committed)
	mustInsert(t, &h, 20, "b", Pending)
	v, ok := h.CurrentCommitted()
	if !ok || v.Value != "a" {
		t.Fatalf("CurrentCommitted = %+v, want a", v)
	}
	h.Commit(vt(20))
	v, _ = h.CurrentCommitted()
	if v.Value != "b" {
		t.Fatalf("CurrentCommitted = %+v, want b", v)
	}
}

func TestHasVersionIn(t *testing.T) {
	var h History
	mustInsert(t, &h, 60, "x", Committed)
	mustInsert(t, &h, 90, "y", Pending)

	iv := vtime.Interval{Lo: vt(60), Hi: vt(100)}
	if !h.HasVersionIn(iv, vtime.Zero) {
		t.Fatal("interval (60,100] contains y@90")
	}
	// The writer's own version does not conflict with itself.
	if h.HasVersionIn(iv, vt(90)) {
		t.Fatal("owner's own version at 90 should be excluded")
	}
	// (90, 100] is free.
	if h.HasVersionIn(vtime.Interval{Lo: vt(90), Hi: vt(100)}, vtime.Zero) {
		t.Fatal("(90,100] should be write-free")
	}
	// Lower bound is exclusive: version at 60 not in (60, 80].
	if h.HasVersionIn(vtime.Interval{Lo: vt(60), Hi: vt(80)}, vtime.Zero) {
		t.Fatal("(60,80] should be write-free (60 exclusive)")
	}
	// Upper bound inclusive: (50, 60] contains the version at 60.
	if !h.HasVersionIn(vtime.Interval{Lo: vt(50), Hi: vt(60)}, vtime.Zero) {
		t.Fatal("(50,60] contains x@60")
	}
}

func TestHasCommittedIn(t *testing.T) {
	var h History
	mustInsert(t, &h, 60, "x", Committed)
	mustInsert(t, &h, 90, "y", Pending)

	iv := vtime.Interval{Lo: vt(80), Hi: vt(100)}
	if h.HasCommittedIn(iv, vtime.Zero) {
		t.Fatal("(80,100] has only a pending version; should not count")
	}
	h.Commit(vt(90))
	if !h.HasCommittedIn(iv, vtime.Zero) {
		t.Fatal("(80,100] now contains committed y@90")
	}
	if h.HasCommittedIn(iv, vt(90)) {
		t.Fatal("owner exclusion should apply")
	}
}

func TestGC(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, "a", Committed)
	mustInsert(t, &h, 20, "b", Committed)
	mustInsert(t, &h, 30, "c", Committed)
	mustInsert(t, &h, 40, "d", Pending)

	// GC with floor 30 keeps c (latest committed <= floor) and d.
	if dropped := h.GC(vt(30)); dropped != 2 {
		t.Fatalf("GC dropped %d, want 2", dropped)
	}
	if h.Len() != 2 {
		t.Fatalf("Len after GC = %d, want 2", h.Len())
	}
	cur, _ := h.CurrentCommitted()
	if cur.Value != "c" {
		t.Fatalf("after GC latest committed = %v, want c", cur.Value)
	}
	// Idempotent.
	if dropped := h.GC(vt(30)); dropped != 0 {
		t.Fatalf("second GC dropped %d, want 0", dropped)
	}
}

func TestGCNeverDropsCurrentCommitted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var h History
		times := rng.Perm(int(n%16) + 2)
		for _, ti := range times {
			st := Pending
			if rng.Intn(2) == 0 {
				st = Committed
			}
			_ = h.Insert(vt(uint64(ti+1)), ti, st)
		}
		before, okBefore := h.CurrentCommitted()
		floor := vt(uint64(rng.Intn(20)))
		h.GC(floor)
		after, okAfter := h.CurrentCommitted()
		if okBefore != okAfter {
			return false
		}
		return !okBefore || before.VT == after.VT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryCurrentIsMaxVT(t *testing.T) {
	// Property: Current always returns the version with the maximum VT
	// regardless of insertion order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h History
		n := rng.Intn(20) + 1
		maxT := uint64(0)
		for _, ti := range rng.Perm(n) {
			u := uint64(ti + 1)
			if err := h.Insert(vt(u), u, Pending); err != nil {
				return false
			}
			if u > maxT {
				maxT = u
			}
		}
		cur, ok := h.Current()
		return ok && cur.VT == vt(maxT)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReservationsConflicts(t *testing.T) {
	var r Reservations
	owner := vt(100)
	r.Reserve(vtime.Interval{Lo: vt(60), Hi: vt(100)}, owner)

	if !r.Conflicts(vt(80), vt(90)) {
		t.Fatal("write at 80 by stranger should conflict with (60,100]")
	}
	if r.Conflicts(vt(80), owner) {
		t.Fatal("owner's own write must not conflict with its reservation")
	}
	if r.Conflicts(vt(60), vt(90)) {
		t.Fatal("lower bound is exclusive")
	}
	if !r.Conflicts(vt(100), vt(90)) {
		t.Fatal("upper bound is inclusive")
	}
	if r.Conflicts(vt(101), vt(90)) {
		t.Fatal("write above interval should not conflict")
	}
}

func TestReservationsEmptyIntervalIgnored(t *testing.T) {
	var r Reservations
	r.Reserve(vtime.Interval{Lo: vt(100), Hi: vt(100)}, vt(100)) // blind write
	if r.Len() != 0 {
		t.Fatalf("empty interval stored; Len = %d", r.Len())
	}
}

func TestReservationsRelease(t *testing.T) {
	var r Reservations
	r.Reserve(vtime.Interval{Lo: vt(10), Hi: vt(20)}, vt(20))
	r.Reserve(vtime.Interval{Lo: vt(10), Hi: vt(30)}, vt(30))
	r.Reserve(vtime.Interval{Lo: vt(15), Hi: vt(25)}, vt(20))

	if removed := r.Release(vt(20)); removed != 2 {
		t.Fatalf("Release removed %d, want 2", removed)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if r.Conflicts(vt(18), vt(99)) != true {
		t.Fatal("remaining reservation (10,30] should still conflict at 18")
	}
	if removed := r.Release(vt(20)); removed != 0 {
		t.Fatal("double release removed reservations")
	}
}

func TestReservationsGCBelow(t *testing.T) {
	var r Reservations
	r.Reserve(vtime.Interval{Lo: vt(10), Hi: vt(20)}, vt(20))
	r.Reserve(vtime.Interval{Lo: vt(25), Hi: vt(40)}, vt(40))
	if removed := r.GCBelow(vt(20)); removed != 1 {
		t.Fatalf("GCBelow removed %d, want 1", removed)
	}
	if r.Len() != 1 || r.All()[0].Owner != vt(40) {
		t.Fatalf("wrong reservation retained: %+v", r.All())
	}
}

func TestReservationsNCRLExclusion(t *testing.T) {
	// Property linking History and Reservations: for any confirmed read
	// reservation (tR, tT], a write w conflicts (NC) iff w in (tR, tT];
	// and had the write been inserted first, the RL check over the same
	// interval would have caught it. The two checks are two sides of the
	// same invariant.
	f := func(lo8, hi8, w8 uint8) bool {
		lo, hi, w := uint64(lo8%30), uint64(hi8%30), uint64(w8%30)+1
		if lo >= hi {
			lo, hi = hi, lo+1
		}
		iv := vtime.Interval{Lo: vt(lo), Hi: vt(hi)}
		owner := vt(hi)
		var r Reservations
		r.Reserve(iv, owner)
		ncConflict := r.Conflicts(vt(w), vt(w))

		var h History
		_ = h.Insert(vt(w), "w", Pending)
		rlConflict := h.HasVersionIn(iv, owner)

		inInterval := iv.Contains(vt(w)) && vt(w) != owner
		return ncConflict == inInterval && rlConflict == inInterval
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertReadCarriesReadVT(t *testing.T) {
	var h History
	if err := h.InsertRead(vt(10), "a", Committed, vt(4)); err != nil {
		t.Fatal(err)
	}
	v, ok := h.Get(vt(10))
	if !ok || v.ReadVT != vt(4) {
		t.Fatalf("ReadVT = %v, want 4", v.ReadVT)
	}
	// Plain Insert leaves ReadVT zero (unknown).
	if err := h.Insert(vt(20), "b", Pending); err != nil {
		t.Fatal(err)
	}
	v, _ = h.Get(vt(20))
	if !v.ReadVT.IsZero() {
		t.Fatalf("plain Insert ReadVT = %v, want zero", v.ReadVT)
	}
}

// addFold is a counter-increment fold: prev (nil = 0) + delta.
func addFold(prev, delta any) any {
	n, _ := prev.(int64)
	return n + delta.(int64)
}

func mustInsertMerge(t *testing.T, h *History, at uint64, d int64, st Status) {
	t.Helper()
	if err := h.InsertFold(vt(at), st, vt(at), addFold, d); err != nil {
		t.Fatalf("InsertFold(%d): %v", at, err)
	}
}

// TestInsertMergeClosure checks the closure form of a merge version: its
// value is the closure applied to the predecessor's, recomputed when the
// predecessor changes.
func TestInsertMergeClosure(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, int64(100), Committed)
	if err := h.InsertMerge(vt(20), Pending, vt(20), func(prev any) any { return prev.(int64) + 5 }); err != nil {
		t.Fatal(err)
	}
	if err := h.InsertMerge(vt(30), Pending, vt(30), nil); err == nil {
		t.Fatal("a nil merge was accepted")
	}
	mustInsert(t, &h, 15, int64(200), Committed)
	if cur, _ := h.Current(); cur.Value != int64(205) {
		t.Fatalf("current = %v, want 205", cur.Value)
	}
}

func TestMergeVersionsInOrder(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, int64(100), Committed)
	mustInsertMerge(t, &h, 20, 5, Committed)
	mustInsertMerge(t, &h, 30, 7, Committed)
	cur, _ := h.Current()
	if cur.Value != int64(112) {
		t.Fatalf("current = %v, want 112", cur.Value)
	}
}

func TestMergeVersionsOutOfOrder(t *testing.T) {
	// A straggling merge version arriving below existing merge versions
	// must recompute the chain above it — final value independent of
	// arrival order.
	var h History
	mustInsert(t, &h, 10, int64(100), Committed)
	mustInsertMerge(t, &h, 30, 7, Committed)
	mustInsertMerge(t, &h, 20, 5, Committed) // straggler
	if v, _ := h.Get(vt(20)); v.Value != int64(105) {
		t.Fatalf("mid value = %v, want 105", v.Value)
	}
	cur, _ := h.Current()
	if cur.Value != int64(112) {
		t.Fatalf("current = %v, want 112", cur.Value)
	}
	// A straggling absolute insert below the merge chain rebases it.
	if err := h.Insert(vt(15), int64(0), Committed); err != nil {
		t.Fatal(err)
	}
	cur, _ = h.Current()
	if cur.Value != int64(12) {
		t.Fatalf("current after rebase = %v, want 12", cur.Value)
	}
}

func TestMergeChainStopsAtAbsoluteVersion(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, int64(100), Committed)
	mustInsertMerge(t, &h, 30, 7, Committed)
	mustInsert(t, &h, 40, int64(1000), Committed) // absolute overwrite above
	mustInsertMerge(t, &h, 50, 1, Committed)
	// Straggler below: recomputation must stop at the absolute 40.
	mustInsertMerge(t, &h, 20, 5, Committed)
	if v, _ := h.Get(vt(30)); v.Value != int64(112) {
		t.Fatalf("value@30 = %v, want 112", v.Value)
	}
	if v, _ := h.Get(vt(40)); v.Value != int64(1000) {
		t.Fatalf("value@40 = %v, want 1000 (absolute)", v.Value)
	}
	cur, _ := h.Current()
	if cur.Value != int64(1001) {
		t.Fatalf("current = %v, want 1001", cur.Value)
	}
}

func TestMergeRecomputeOnAbort(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, int64(100), Pending)
	mustInsertMerge(t, &h, 20, 5, Committed)
	mustInsertMerge(t, &h, 30, 7, Committed)
	// The base aborts: the merge chain rebases onto nothing (zero).
	if !h.Abort(vt(10)) {
		t.Fatal("abort failed")
	}
	cur, _ := h.Current()
	if cur.Value != int64(12) {
		t.Fatalf("current after abort = %v, want 12", cur.Value)
	}
}

func TestMergeSetValueBecomesAbsolute(t *testing.T) {
	// A transaction overwriting its own Add with a Set makes the version
	// absolute: later predecessor changes must not re-derive it.
	var h History
	mustInsert(t, &h, 10, int64(100), Pending)
	mustInsertMerge(t, &h, 20, 5, Pending)
	if !h.SetValue(vt(20), int64(42)) {
		t.Fatal("SetValue failed")
	}
	h.Abort(vt(10))
	if v, _ := h.Get(vt(20)); v.Value != int64(42) {
		t.Fatalf("value = %v, want absolute 42", v.Value)
	}
}

func TestMergeGCMaterializesBase(t *testing.T) {
	var h History
	mustInsert(t, &h, 10, int64(100), Committed)
	mustInsertMerge(t, &h, 20, 5, Committed)
	mustInsertMerge(t, &h, 30, 7, Committed)
	if n := h.GC(vt(30)); n != 2 {
		t.Fatalf("GC dropped %d, want 2", n)
	}
	cur, _ := h.Current()
	if cur.Value != int64(112) {
		t.Fatalf("current after GC = %v, want 112", cur.Value)
	}
	// The retained base is now absolute: inserting below must not change it.
	if err := h.Insert(vt(5), int64(0), Committed); err != nil {
		t.Fatal(err)
	}
	cur, _ = h.Current()
	if cur.Value != int64(112) {
		t.Fatalf("current after under-insert = %v, want 112", cur.Value)
	}
}

func TestMergeGCBaseAbsorbsStragglerMerges(t *testing.T) {
	// A committed merge straggler arriving below a materialized merge base
	// folds its delta into the base — commutativity makes the fold legal —
	// instead of being shadowed and lost.
	var h History
	mustInsert(t, &h, 10, int64(100), Committed)
	mustInsertMerge(t, &h, 20, 5, Committed)
	mustInsertMerge(t, &h, 30, 7, Committed)
	h.GC(vt(30)) // base is the merge version at 30, value 112
	mustInsertMerge(t, &h, 15, 3, Committed)
	cur, _ := h.Current()
	if cur.Value != int64(115) {
		t.Fatalf("current after straggler fold = %v, want 115", cur.Value)
	}
	// Merge versions above the base re-derive from the folded value.
	mustInsertMerge(t, &h, 40, 2, Committed)
	mustInsertMerge(t, &h, 12, 1, Committed)
	cur, _ = h.Current()
	if cur.Value != int64(118) {
		t.Fatalf("current after second fold = %v, want 118", cur.Value)
	}
	// A genuine absolute base (GC kept a plain Insert) shadows stragglers,
	// exactly as the full history would.
	var g History
	mustInsertMerge(t, &g, 20, 5, Committed)
	mustInsert(t, &g, 30, int64(200), Committed)
	g.GC(vt(30))
	mustInsertMerge(t, &g, 25, 9, Committed)
	cur, _ = g.Current()
	if cur.Value != int64(200) {
		t.Fatalf("current with absolute base = %v, want 200", cur.Value)
	}
}

func TestMaterializedBaseRespectsDroppedAbsoluteWrite(t *testing.T) {
	// A committed merge straggler below the latest absolute write that GC
	// dropped was overwritten by that write in VT order: the materialized
	// base must not fold it in. A replica that received the straggler
	// before GC reads 101, and so must this one.
	var h History
	mustInsert(t, &h, 10, int64(100), Committed)
	mustInsertMerge(t, &h, 20, 1, Committed)
	h.GC(vt(20)) // base is the merge at 20, value 101; the write at 10 dropped
	mustInsertMerge(t, &h, 5, 5, Committed)
	cur, _ := h.Current()
	if cur.Value != int64(101) {
		t.Fatalf("current after straggler below the dropped write = %v, want 101", cur.Value)
	}
	// A pending straggler there must not fold at commit either.
	mustInsertMerge(t, &h, 7, 3, Pending)
	h.Commit(vt(7))
	cur, _ = h.Current()
	if cur.Value != int64(101) {
		t.Fatalf("current after committing a straggler below the dropped write = %v, want 101", cur.Value)
	}
	// One above the dropped write still folds, as it would have applied
	// on top of it.
	mustInsertMerge(t, &h, 15, 2, Committed)
	cur, _ = h.Current()
	if cur.Value != int64(103) {
		t.Fatalf("current after straggler above the dropped write = %v, want 103", cur.Value)
	}
	// The same order in full history, with no GC, agrees.
	var full History
	mustInsert(t, &full, 10, int64(100), Committed)
	mustInsertMerge(t, &full, 20, 1, Committed)
	mustInsertMerge(t, &full, 5, 5, Committed)
	mustInsertMerge(t, &full, 7, 3, Committed)
	mustInsertMerge(t, &full, 15, 2, Committed)
	if want, _ := full.Current(); cur.Value != want.Value {
		t.Fatalf("GC'd history reads %v, full history %v", cur.Value, want.Value)
	}
}

func TestMergeGCBaseFoldsOnCommitNotInsert(t *testing.T) {
	// A PENDING merge below a materialized base must not fold on insert:
	// its transaction may abort. It folds when the commit outcome arrives.
	var h History
	mustInsertMerge(t, &h, 20, 5, Committed)
	mustInsertMerge(t, &h, 30, 7, Committed)
	h.GC(vt(30)) // base value 12
	mustInsertMerge(t, &h, 15, 100, Pending)
	cur, _ := h.Current()
	if cur.Value != int64(12) {
		t.Fatalf("current with pending straggler = %v, want 12", cur.Value)
	}
	if !h.Commit(vt(15)) {
		t.Fatal("commit failed")
	}
	cur, _ = h.Current()
	if cur.Value != int64(112) {
		t.Fatalf("current after straggler commit = %v, want 112", cur.Value)
	}
	// A second Commit of the same VT is idempotent — no double fold.
	h.Commit(vt(15))
	cur, _ = h.Current()
	if cur.Value != int64(112) {
		t.Fatalf("current after re-commit = %v, want 112 (no double fold)", cur.Value)
	}
	// And an aborted pending straggler leaves the base untouched.
	mustInsertMerge(t, &h, 16, 50, Pending)
	h.Abort(vt(16))
	cur, _ = h.Current()
	if cur.Value != int64(112) {
		t.Fatalf("current after straggler abort = %v, want 112", cur.Value)
	}
}

func TestReservationsIntersecting(t *testing.T) {
	var r Reservations
	r.Reserve(vtime.Interval{Lo: vt(10), Hi: vt(30)}, vt(31))
	r.Reserve(vtime.Interval{Lo: vt(20), Hi: vt(40)}, vt(41))
	r.Reserve(vtime.Interval{Lo: vt(50), Hi: vt(60)}, vt(61))
	got := r.Intersecting(vt(25), vt(31))
	if len(got) != 1 || got[0] != vt(41) {
		t.Fatalf("Intersecting(25, excl 31) = %v, want [41]", got)
	}
	if got := r.Intersecting(vt(45), vtime.Zero); got != nil {
		t.Fatalf("Intersecting(45) = %v, want none", got)
	}
}

func TestMergeDuplicateRejectedAfterGCFold(t *testing.T) {
	// Regression: a duplicated committed merge message re-delivered AFTER
	// GC folded the original into the materialized base used to fold its
	// delta a second time (the version record that would have tripped the
	// duplicate-VT check was dropped by GC), silently diverging replicas.
	// Found by the simulation sweep: profile nofast, seed 107 — one site
	// saw two transport duplicates of counter adds and ended 1747 ahead.
	var h History
	mustInsert(t, &h, 10, int64(100), Committed)
	mustInsertMerge(t, &h, 20, 5, Committed)
	mustInsertMerge(t, &h, 30, 7, Committed)
	h.GC(vt(30)) // base is the merge at 30, value 112; 10 and 20 dropped
	if err := h.InsertFold(vt(20), Committed, vt(20), addFold, int64(5)); err == nil {
		t.Fatal("duplicate of a GC-folded merge was accepted")
	}
	cur, _ := h.Current()
	if cur.Value != int64(112) {
		t.Fatalf("current after duplicate = %v, want 112 (no double fold)", cur.Value)
	}
	// A straggler that folds in AFTER materialization and is then dropped
	// by a later GC must be remembered too.
	mustInsertMerge(t, &h, 15, 3, Committed) // folds into base: 115
	mustInsertMerge(t, &h, 40, 1, Committed)
	h.GC(vt(40)) // drops the shadowed straggler record and the old base
	if err := h.InsertFold(vt(15), Committed, vt(15), addFold, int64(3)); err == nil {
		t.Fatal("duplicate of a post-materialization straggler was accepted")
	}
	if err := h.InsertFold(vt(30), Committed, vt(30), addFold, int64(7)); err == nil {
		t.Fatal("duplicate of a dropped materialized base was accepted")
	}
	cur, _ = h.Current()
	if cur.Value != int64(116) {
		t.Fatalf("current after duplicates = %v, want 116", cur.Value)
	}
	// Genuine first arrivals below the new base still fold normally.
	mustInsertMerge(t, &h, 25, 4, Committed)
	cur, _ = h.Current()
	if cur.Value != int64(120) {
		t.Fatalf("current after genuine straggler = %v, want 120", cur.Value)
	}
}
