package engine

import (
	"bytes"
	"reflect"
	"testing"
	"time"

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
	// inner finds the tuple at root[1] and the list under its key "m".
	inner := func(tx *Tx) (tup, lst ObjRef, err error) {
		if tup, err = tx.ListGet(root, 1); err != nil {
			return
		}
		lst, _, err = tx.TupleGet(tup, "m")
		return
	}
	var anchor wire.ElemTag
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
			tup, _, err := inner(tx)
			if err != nil {
				return err
			}
			if _, err := tx.TupleSet(tup, "k", num(3)); err != nil {
				return err
			}
			return tx.ListRemove(root, 2)
		},
		func(tx *Tx) error { // remove the next insert's anchor
			_, lst, err := inner(tx)
			if err != nil {
				return err
			}
			if anchor, err = tx.ListTagAt(lst, 0); err != nil {
				return err
			}
			return tx.ListRemove(lst, 0)
		},
		func(tx *Tx) error {
			_, lst, err := inner(tx)
			if err != nil {
				return err
			}
			_, err = tx.ListInsertAfter(lst, anchor, str("c"))
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
// every way structure travels between sites — a join snapshot, a
// checkpoint, a WAL replay — and checks that each copy keeps every
// child's path and the committed value.
func TestCompositeStructureMovesBetweenSites(t *testing.T) {
	for _, tc := range []struct {
		name string
		move func(t *testing.T, src movedSource) (*Site, ObjRef)
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
		}},
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
		}},
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
		}},
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
		})
	}
}
