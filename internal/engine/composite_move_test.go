package engine

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"decaf/internal/history"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wal"
	"decaf/internal/wire"
)

// freshSite starts a site with the given ID on a network of its own.
func freshSite(t *testing.T, id int, opts Options) *Site {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	ep, err := net.Endpoint(vtime.SiteID(id))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(ep, opts)
	s.Start()
	t.Cleanup(func() {
		s.Stop()
		net.Close()
	})
	return s
}

// movedSource is a nested composite at site 1 of h, ready to be moved.
type movedSource struct {
	h    *harness
	wal  *wal.Log
	dir  string
	cp   []byte // checkpoint taken before any of root's structure existed
	root ObjRef
	// anchor tags the removed first element of the nested list.
	anchor wire.ElemTag
}

// nestedList finds the tuple at root[1] and the list under its key "m".
func nestedList(tx *Tx, root ObjRef) (tup, lst ObjRef, err error) {
	if tup, err = tx.ListGet(root, 1); err != nil {
		return
	}
	lst, _, err = tx.TupleGet(tup, "m")
	return
}

// insertAfterAnchor inserts "d" into root's nested list after the
// removed element anchor.
func insertAfterAnchor(t *testing.T, s *Site, root ObjRef, anchor wire.ElemTag) {
	t.Helper()
	res := s.Submit(&Txn{Execute: func(tx *Tx) error {
		_, lst, err := nestedList(tx, root)
		if err != nil {
			return err
		}
		_, err = tx.ListInsertAfter(lst, anchor, wire.ChildDecl{Kind: KindString, Value: "d"})
		return err
	}}).Wait()
	if !res.Committed {
		t.Fatalf("insert after the removed anchor at %s: %+v", s.ID(), res)
	}
}

// nestedSource builds, at site 1, a list holding a tuple holding a list,
// with the empty tuple key, a key set twice, a removed element, and an
// element inserted after a removed anchor. Site 1 logs to a WAL; its
// checkpoint predates the structure, so recovery rebuilds all of it by
// replay.
func nestedSource(t *testing.T) movedSource {
	t.Helper()
	src := movedSource{h: &harness{t: t, net: transport.NewNetwork(transport.Config{}), sites: map[vtime.SiteID]*Site{}}}
	src.dir = t.TempDir()
	src.wal = openTestWAL(t, src.dir)
	for id := 1; id <= 2; id++ {
		ep, err := src.h.net.Endpoint(vtime.SiteID(id))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{}
		if id == 1 {
			opts.WAL = src.wal
		}
		s := NewSite(ep, opts)
		s.Start()
		src.h.sites[vtime.SiteID(id)] = s
	}
	t.Cleanup(func() {
		for _, s := range src.h.sites {
			s.Stop()
		}
		src.h.net.Close()
		_ = src.wal.Close()
	})

	s := src.h.site(1)
	root, err := s.CreateObject(KindList, "L", nil)
	if err != nil {
		t.Fatal(err)
	}
	src.root = root
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	src.cp = buf.Bytes()

	str := func(v string) wire.ChildDecl { return wire.ChildDecl{Kind: KindString, Value: v} }
	num := func(v int64) wire.ChildDecl { return wire.ChildDecl{Kind: KindInt, Value: v} }
	steps := []func(tx *Tx) error{
		func(tx *Tx) error {
			if _, err := tx.ListAppend(root, str("head")); err != nil {
				return err
			}
			tup, err := tx.ListAppend(root, wire.ChildDecl{Kind: KindTuple})
			if err != nil {
				return err
			}
			if _, err := tx.TupleSet(tup, "", num(1)); err != nil {
				return err
			}
			if _, err := tx.TupleSet(tup, "k", num(2)); err != nil {
				return err
			}
			lst, err := tx.TupleSet(tup, "m", wire.ChildDecl{Kind: KindList})
			if err != nil {
				return err
			}
			for _, v := range []string{"a", "b"} {
				if _, err := tx.ListAppend(lst, str(v)); err != nil {
					return err
				}
			}
			_, err = tx.ListAppend(root, str("gone"))
			return err
		},
		func(tx *Tx) error { // the key set twice, and a removed element
			tup, _, err := nestedList(tx, root)
			if err != nil {
				return err
			}
			if _, err := tx.TupleSet(tup, "k", num(3)); err != nil {
				return err
			}
			return tx.ListRemove(root, 2)
		},
		func(tx *Tx) error { // remove the next insert's anchor
			_, lst, err := nestedList(tx, root)
			if err != nil {
				return err
			}
			if src.anchor, err = tx.ListTagAt(lst, 0); err != nil {
				return err
			}
			return tx.ListRemove(lst, 0)
		},
		func(tx *Tx) error {
			_, lst, err := nestedList(tx, root)
			if err != nil {
				return err
			}
			_, err = tx.ListInsertAfter(lst, src.anchor, str("c"))
			return err
		},
	}
	for i, step := range steps {
		if res := s.Submit(&Txn{Execute: step}).Wait(); !res.Committed {
			t.Fatalf("step %d: %+v", i, res)
		}
	}
	want := []any{"head", map[string]any{"": int64(1), "k": int64(3), "m": []any{"c", "b"}}}
	if v, _ := s.ReadCommitted(root); !reflect.DeepEqual(v, want) {
		t.Fatalf("source = %v, want %v", v, want)
	}
	return src
}

// unresolvedPaths returns the paths of root's descendants that do not
// lead back to them, and how many descendants there are.
func unresolvedPaths(s *Site, root ObjRef) (bad []string, n int) {
	_ = s.call(func() {
		root.o.forEachDescendant(func(d *object) {
			n++
			if got, _, _ := root.o.resolvePath(d.pathFromRoot(), false); got != d {
				bad = append(bad, d.pathFromRoot().String())
			}
		})
	})
	return bad, n
}

// TestCompositeStructureMovesBetweenSites moves one nested composite
// every way structure travels between sites — a join's state image, a
// checkpoint, a WAL replay — and checks that each copy keeps every
// child's path and the committed value, and then its tombstones: an
// insert anchored on an element removed before the move lands alike in
// the copy and at the source.
func TestCompositeStructureMovesBetweenSites(t *testing.T) {
	for _, tc := range []struct {
		name string
		move func(t *testing.T, src movedSource) (*Site, ObjRef)
		// Which copies run the insert after the move: the source's
		// reaches a joined copy by propagation; a restored copy is a
		// site of its own; a recovered copy replaced the source.
		atSource, atCopy bool
	}{
		{"join", func(t *testing.T, src movedSource) (*Site, ObjRef) {
			s2 := src.h.site(2)
			l2, err := s2.CreateObject(KindList, "L", nil)
			if err != nil {
				t.Fatal(err)
			}
			if res := s2.JoinObject(l2, 1, src.root.ID()).Wait(); !res.Committed {
				t.Fatalf("join: %+v", res)
			}
			want, _ := src.h.site(1).ReadCommitted(src.root)
			src.h.eventually(3*time.Second, "joined structure committed", func() bool {
				v, _ := s2.ReadCommitted(l2)
				return reflect.DeepEqual(v, want)
			})
			return s2, l2
		}, true, false},
		{"checkpoint", func(t *testing.T, src movedSource) (*Site, ObjRef) {
			var buf bytes.Buffer
			if err := src.h.site(1).Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			s := freshSite(t, 1, Options{})
			if err := s.Restore(&buf); err != nil {
				t.Fatal(err)
			}
			ref, _ := s.Object(src.root.ID())
			return s, ref
		}, true, true},
		{"wal", func(t *testing.T, src movedSource) (*Site, ObjRef) {
			src.h.site(1).Stop()
			if err := src.wal.Close(); err != nil {
				t.Fatal(err)
			}
			s := freshSite(t, 1, Options{WAL: openTestWAL(t, src.dir)})
			if err := s.Recover(bytes.NewReader(src.cp)); err != nil {
				t.Fatal(err)
			}
			ref, _ := s.Object(src.root.ID())
			return s, ref
		}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := nestedSource(t)
			want, err := src.h.site(1).ReadCommitted(src.root)
			if err != nil {
				t.Fatal(err)
			}
			s, moved := tc.move(t, src)
			if moved.o == nil {
				t.Fatal("moved site lacks the composite")
			}
			if got, _ := s.ReadCommitted(moved); !reflect.DeepEqual(got, want) {
				t.Errorf("moved value = %v, want %v", got, want)
			}
			bad, n := unresolvedPaths(s, moved)
			if len(bad) > 0 {
				t.Errorf("%d of %d descendants do not resolve by their own path: %v", len(bad), n, bad)
			}

			if tc.atSource {
				insertAfterAnchor(t, src.h.site(1), src.root, src.anchor)
			}
			if tc.atCopy {
				insertAfterAnchor(t, s, moved, src.anchor)
			}
			want = []any{"head", map[string]any{"": int64(1), "k": int64(3), "m": []any{"d", "c", "b"}}}
			if tc.atSource {
				if got, _ := src.h.site(1).ReadCommitted(src.root); !reflect.DeepEqual(got, want) {
					t.Fatalf("source after the insert = %v, want %v", got, want)
				}
			}
			src.h.eventually(3*time.Second, "copy reads the insert after the removed anchor", func() bool {
				got, _ := s.ReadCommitted(moved)
				return reflect.DeepEqual(got, want)
			})
		})
	}
}

// TestJoinImageReachesJoinersReplicas joins a composite that already has
// a replica elsewhere: M2 at site 2 and M3 at site 3 are replicas when
// M2 joins L1 at site 1. Site 3 gets L1's state image only through the
// join's value write, and must then read and extend the same structure
// as the other two, tombstones and value versions included. M2's own
// element goes: the join copies L1's value over M2's.
func TestJoinImageReachesJoinersReplicas(t *testing.T) {
	h := newHarness(t, 3, transport.Config{Latency: time.Millisecond})
	str := func(v string) wire.ChildDecl { return wire.ChildDecl{Kind: KindString, Value: v} }
	l1, _ := h.site(1).CreateObject(KindList, "L", nil)
	var gone wire.ElemTag
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		for _, v := range []string{"p", "r", "q"} {
			if _, err := tx.ListAppend(l1, str(v)); err != nil {
				return err
			}
		}
		return nil
	}}).Wait(); !res.Committed {
		t.Fatalf("fill L1: %+v", res)
	}
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		p, err := tx.ListGet(l1, 0)
		if err != nil {
			return err
		}
		if err := tx.Write(p, "p1"); err != nil {
			return err
		}
		if gone, err = tx.ListTagAt(l1, 1); err != nil {
			return err
		}
		return tx.ListRemove(l1, 1)
	}}).Wait(); !res.Committed {
		t.Fatalf("write p, remove r: %+v", res)
	}

	m2, _ := h.site(2).CreateObject(KindList, "M", nil)
	m3, _ := h.site(3).CreateObject(KindList, "M", nil)
	if res := h.site(3).JoinObject(m3, 2, m2.ID()).Wait(); !res.Committed {
		t.Fatalf("join M3 to M2: %+v", res)
	}
	if res := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		_, err := tx.ListAppend(m2, str("x"))
		return err
	}}).Wait(); !res.Committed {
		t.Fatalf("fill M2: %+v", res)
	}
	h.eventually(3*time.Second, "M3 has M2's element", func() bool {
		got, _ := h.site(3).ReadCommitted(m3)
		return reflect.DeepEqual(got, []any{"x"})
	})
	if res := h.site(2).JoinObject(m2, 1, l1.ID()).Wait(); !res.Committed {
		t.Fatalf("join M2 to L1: %+v", res)
	}
	refs := map[int]ObjRef{1: l1, 2: m2, 3: m3}
	agree := func(what string, want []any) {
		t.Helper()
		h.eventually(3*time.Second, what, func() bool {
			for i, ref := range refs {
				if got, _ := h.site(i).ReadCommitted(ref); !reflect.DeepEqual(got, want) {
					return false
				}
			}
			return true
		})
	}
	agree("every replica reads L1", []any{"p1", "q"})

	// An insert anchored on the element removed before the join, and a
	// read-modify-write, at the replica the image reached last, of an
	// element written before the join: its read names the version the
	// image carried, which the primary must know.
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		_, err := tx.ListInsertAfter(l1, gone, str("s"))
		return err
	}}).Wait(); !res.Committed {
		t.Fatalf("insert after the removed element: %+v", res)
	}
	agree("every replica has the insert", []any{"p1", "s", "q"})
	if res := h.site(3).Submit(&Txn{Execute: func(tx *Tx) error {
		c, err := tx.ListGet(m3, 0)
		if err != nil {
			return err
		}
		v, err := tx.Read(c)
		if err != nil {
			return err
		}
		return tx.Write(c, v.(string)+"2")
	}}).Wait(); !res.Committed {
		t.Fatalf("update at site 3: %+v", res)
	}
	agree("every replica has site 3's update", []any{"p12", "s", "q"})
}

// TestJoinedTupleKeyRemovesAtCopy removes a tuple key at a joined copy.
// The copy's slot was embedded by the join, but the remove must still
// name the slot by its pin, which every replica shares.
func TestJoinedTupleKeyRemovesAtCopy(t *testing.T) {
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	t1, _ := h.site(1).CreateObject(KindTuple, "T", nil)
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		_, err := tx.TupleSet(t1, "k", wire.ChildDecl{Kind: KindInt, Value: int64(1)})
		return err
	}}).Wait(); !res.Committed {
		t.Fatalf("set k: %+v", res)
	}
	t2, _ := h.site(2).CreateObject(KindTuple, "T", nil)
	if res := h.site(2).JoinObject(t2, 1, t1.ID()).Wait(); !res.Committed {
		t.Fatalf("join: %+v", res)
	}
	if res := h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.TupleRemove(t2, "k")
	}}).Wait(); !res.Committed {
		t.Fatalf("remove k at the copy: %+v", res)
	}
	h.eventually(3*time.Second, "both copies lost k", func() bool {
		for i, ref := range map[int]ObjRef{1: t1, 2: t2} {
			if got, _ := h.site(i).ReadCommitted(ref); !reflect.DeepEqual(got, map[string]any{}) {
				return false
			}
		}
		return true
	})
}

// TestJoinInstallCommitsWithTheJoin installs a state image under a
// pending join into a list that holds a committed element of its own,
// newer than the copied one: committed reads keep the old value until
// the join commits, and an abort restores it, although the copied slot
// was embedded by an older transaction elsewhere.
func TestJoinInstallCommitsWithTheJoin(t *testing.T) {
	s := freshSite(t, 1, Options{})
	appendTo := func(l ObjRef, v string) {
		t.Helper()
		if res := s.Submit(&Txn{Execute: func(tx *Tx) error {
			_, err := tx.ListAppend(l, wire.ChildDecl{Kind: KindString, Value: v})
			return err
		}}).Wait(); !res.Committed {
			t.Fatalf("append %s: %+v", v, res)
		}
	}
	src, _ := s.CreateObject(KindList, "L", nil)
	appendTo(src, "p")
	for _, commit := range []bool{true, false} {
		dst, _ := s.CreateObject(KindList, "M", nil)
		appendTo(dst, "x")
		var pending, current, after any
		_ = s.call(func() {
			st := &txnState{vt: s.clock.Next()}
			s.installImage(st, dst.o, captureImage(src.o, false), history.Pending)
			pending = dst.o.readValue(dst.o.latestCommittedVT(), true)
			current = dst.o.readValue(dst.o.latestVT(), false)
			if commit {
				st.commitApplied()
			} else {
				s.undoApplied(st)
			}
			after = dst.o.readValue(dst.o.latestCommittedVT(), true)
		})
		want := []any{"x"}
		if commit {
			want = []any{"p"}
		}
		if !reflect.DeepEqual(pending, []any{"x"}) || !reflect.DeepEqual(current, []any{"p"}) || !reflect.DeepEqual(after, want) {
			t.Errorf("commit=%v: committed %v and current %v while pending, committed %v after; want [x], [p], %v",
				commit, pending, current, after, want)
		}
	}
}
