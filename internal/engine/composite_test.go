package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

func TestListLocalOperations(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	lst, _ := h.site(1).CreateObject(KindList, "L", nil)

	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		if n, _ := tx.ListLen(lst); n != 0 {
			return fmt.Errorf("fresh list len %d", n)
		}
		a, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindString, Value: "a"})
		if err != nil {
			return err
		}
		if _, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindString, Value: "c"}); err != nil {
			return err
		}
		if _, err := tx.ListInsert(lst, 1, wire.ChildDecl{Kind: KindString, Value: "b"}); err != nil {
			return err
		}
		if v, _ := tx.Read(a); v != "a" {
			return fmt.Errorf("child read = %v", v)
		}
		return nil
	}}).Wait()
	if !res.Committed {
		t.Fatalf("txn: %+v", res)
	}
	v, _ := h.site(1).ReadCommitted(lst)
	if !reflect.DeepEqual(v, []any{"a", "b", "c"}) {
		t.Fatalf("list = %v", v)
	}
}

func TestListRemoveAndRead(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	lst, _ := h.site(1).CreateObject(KindList, "L", nil)
	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		for _, s := range []string{"x", "y", "z"} {
			if _, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindString, Value: s}); err != nil {
				return err
			}
		}
		return nil
	}}).Wait()
	if !res.Committed {
		t.Fatal(res.Err)
	}
	res = h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.ListRemove(lst, 1)
	}}).Wait()
	if !res.Committed {
		t.Fatal(res.Err)
	}
	v, _ := h.site(1).ReadCommitted(lst)
	if !reflect.DeepEqual(v, []any{"x", "z"}) {
		t.Fatalf("list = %v", v)
	}
}

func TestListRemoveRollsBackOnAbort(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	lst, _ := h.site(1).CreateObject(KindList, "L", nil)
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		_, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindInt, Value: int64(1)})
		return err
	}}).Wait(); !res.Committed {
		t.Fatal("setup failed")
	}
	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		if err := tx.ListRemove(lst, 0); err != nil {
			return err
		}
		return fmt.Errorf("changed my mind")
	}}).Wait()
	if res.Committed {
		t.Fatal("txn should have aborted")
	}
	v, _ := h.site(1).ReadCommitted(lst)
	if !reflect.DeepEqual(v, []any{int64(1)}) {
		t.Fatalf("list = %v, want element restored", v)
	}
}

func TestRemoveOfAbortedInsertIsDecided(t *testing.T) {
	// Site 3 removes an element whose insert (a, from site 2) is still
	// pending there, while the composite's newest version (b) is
	// committed. Then a aborts. Site 1, the primary, never had the
	// element: a remove that did not depend on a would wait there for a's
	// insert forever, and so would its origin. It must abort with a and
	// leave its Handle decided.
	a := vtime.VT{Time: 1 << 20, Site: 2}
	b := vtime.VT{Time: 1<<20 + 1, Site: 2}
	elem := wire.ElemTag{VT: a}
	str := wire.ChildDecl{Kind: KindString, Value: "v"}
	cases := []struct {
		kind   Kind
		insert [2]wire.Op // at a, then at b
		remove func(tx *Tx, c ObjRef) error
	}{
		{KindList, [2]wire.Op{wire.OpListInsert{Tag: elem, Child: str}, wire.OpListInsert{Tag: wire.ElemTag{VT: b}, After: elem, Child: str}},
			func(tx *Tx, l ObjRef) error {
				n, err := tx.ListLen(l)
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if tag, _ := tx.ListTagAt(l, i); tag == elem {
						return tx.ListRemove(l, i)
					}
				}
				return ErrNoSuchElement
			}},
		{KindTuple, [2]wire.Op{wire.OpTupleSet{Key: "a", Child: str}, wire.OpTupleSet{Key: "b", Child: str}},
			func(tx *Tx, tup ObjRef) error { return tx.TupleRemove(tup, "a") }},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			h := newHarness(t, 3, transport.Config{})
			c := h.joined(tc.kind, "C", nil, 1, 3)[3]
			s := h.site(3)
			insertA := remoteWrite(s, c, a, tc.insert[0], false)
			insertB := remoteWrite(s, c, b, tc.insert[1], false)
			_ = s.call(func() {
				s.handleMessage(2, insertA)
				s.handleMessage(2, insertB)
				s.handleMessage(2, wire.Outcome{TxnVT: b, Committed: true})
			})
			hd := s.Submit(&Txn{Execute: func(tx *Tx) error { return tc.remove(tx, c) }})
			<-hd.Applied()
			_ = s.call(func() { s.handleMessage(2, wire.Outcome{TxnVT: a, Committed: false}) })
			select {
			case res := <-hd.Done():
				if res.Committed {
					t.Fatalf("removal of an element whose insert aborted committed: %+v", res)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("the removal was never decided")
			}
		})
	}
}

func TestTupleOperations(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	tup, _ := h.site(1).CreateObject(KindTuple, "T", nil)
	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		if _, err := tx.TupleSet(tup, "name", wire.ChildDecl{Kind: KindString, Value: "ada"}); err != nil {
			return err
		}
		if _, err := tx.TupleSet(tup, "age", wire.ChildDecl{Kind: KindInt, Value: int64(36)}); err != nil {
			return err
		}
		keys, err := tx.TupleKeys(tup)
		if err != nil {
			return err
		}
		if len(keys) != 2 {
			return fmt.Errorf("keys = %v", keys)
		}
		c, okc, err := tx.TupleGet(tup, "name")
		if err != nil || !okc {
			return fmt.Errorf("TupleGet: %v %v", okc, err)
		}
		if v, _ := tx.Read(c); v != "ada" {
			return fmt.Errorf("name = %v", v)
		}
		return tx.TupleRemove(tup, "age")
	}}).Wait()
	if !res.Committed {
		t.Fatalf("txn: %+v", res)
	}
	v, _ := h.site(1).ReadCommitted(tup)
	if !reflect.DeepEqual(v, map[string]any{"name": "ada"}) {
		t.Fatalf("tuple = %v", v)
	}
}

func TestNestedComposites(t *testing.T) {
	// A tuple containing a list of ints, e.g. A[103][John][12] style
	// nesting from paper §3.2.
	h := newHarness(t, 1, transport.Config{})
	tup, _ := h.site(1).CreateObject(KindTuple, "A", nil)
	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		john, err := tx.TupleSet(tup, "John", wire.ChildDecl{Kind: KindList})
		if err != nil {
			return err
		}
		for i := int64(0); i < 3; i++ {
			if _, err := tx.ListAppend(john, wire.ChildDecl{Kind: KindInt, Value: i * 10}); err != nil {
				return err
			}
		}
		return nil
	}}).Wait()
	if !res.Committed {
		t.Fatalf("txn: %+v", res)
	}
	v, _ := h.site(1).ReadCommitted(tup)
	want := map[string]any{"John": []any{int64(0), int64(10), int64(20)}}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("tuple = %v, want %v", v, want)
	}
}

func TestIndirectPropagationToReplica(t *testing.T) {
	// Child updates route through the composite root's replication graph
	// with VT-tagged paths (paper §3.2 indirect propagation).
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	lists := h.joined(KindList, "L", nil, 1, 2)

	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		_, err := tx.ListAppend(lists[1], wire.ChildDecl{Kind: KindString, Value: "hello"})
		return err
	}}).Wait()
	if !res.Committed {
		t.Fatalf("insert: %+v", res)
	}
	h.eventually(2*time.Second, "replica structure", func() bool {
		v, _ := h.site(2).ReadCommitted(lists[2])
		return reflect.DeepEqual(v, []any{"hello"})
	})

	// Update the embedded child from the OTHER site: the path (with its
	// VT tag) must resolve to the same element.
	res = h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
		c, err := tx.ListGet(lists[2], 0)
		if err != nil {
			return err
		}
		return tx.Write(c, "goodbye")
	}}).Wait()
	if !res.Committed {
		t.Fatalf("child update: %+v", res)
	}
	h.eventually(2*time.Second, "child update replicated", func() bool {
		v, _ := h.site(1).ReadCommitted(lists[1])
		return reflect.DeepEqual(v, []any{"goodbye"})
	})
}

func TestConcurrentListInsertsConverge(t *testing.T) {
	// Concurrent inserts from both replicas must converge to the same
	// order everywhere (VT-tagged elements, paper §3.2.1).
	h := newHarness(t, 2, transport.Config{Latency: 3 * time.Millisecond})
	lists := h.joined(KindList, "L", nil, 1, 2)

	var handles []*Handle
	for k := 0; k < 5; k++ {
		v1, v2 := fmt.Sprintf("a%d", k), fmt.Sprintf("b%d", k)
		handles = append(handles,
			h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
				_, err := tx.ListAppend(lists[1], wire.ChildDecl{Kind: KindString, Value: v1})
				return err
			}}),
			h.site(2).Submit(&Txn{Execute: func(tx *Tx) error {
				_, err := tx.ListAppend(lists[2], wire.ChildDecl{Kind: KindString, Value: v2})
				return err
			}}))
	}
	for _, hd := range handles {
		if r := hd.Wait(); !r.Committed {
			t.Fatalf("insert: %+v", r)
		}
	}
	h.eventually(3*time.Second, "list convergence", func() bool {
		v1, _ := h.site(1).ReadCommitted(lists[1])
		v2, _ := h.site(2).ReadCommitted(lists[2])
		l1, _ := v1.([]any)
		return len(l1) == 10 && reflect.DeepEqual(v1, v2)
	})
}

func TestCompositeJoinShipsStructure(t *testing.T) {
	// Joining a composite replica ships the full structure snapshot with
	// original element tags (so later paths resolve at the new member).
	h := newHarness(t, 2, transport.Config{Latency: time.Millisecond})
	l1, _ := h.site(1).CreateObject(KindList, "L", nil)
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		for _, s := range []string{"p", "q"} {
			if _, err := tx.ListAppend(l1, wire.ChildDecl{Kind: KindString, Value: s}); err != nil {
				return err
			}
		}
		return nil
	}}).Wait(); !res.Committed {
		t.Fatal("setup")
	}

	l2, _ := h.site(2).CreateObject(KindList, "L", nil)
	if res := h.site(2).JoinObject(l2, 1, l1.ID()).Wait(); !res.Committed {
		t.Fatalf("join: %+v", res)
	}
	h.eventually(2*time.Second, "structure copied", func() bool {
		v, _ := h.site(2).ReadCurrent(l2)
		return reflect.DeepEqual(v, []any{"p", "q"})
	})

	// A child update from site 1 must resolve at site 2's copy.
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		c, err := tx.ListGet(l1, 1)
		if err != nil {
			return err
		}
		return tx.Write(c, "q2")
	}}).Wait(); !res.Committed {
		t.Fatalf("child write: %+v", res)
	}
	h.eventually(2*time.Second, "child update at joined replica", func() bool {
		v, _ := h.site(2).ReadCommitted(l2)
		return reflect.DeepEqual(v, []any{"p", "q2"})
	})
}

func TestViewOnCompositeSeesChildChanges(t *testing.T) {
	// A view attached to a composite receives notifications for changes
	// to its children (paper §2.5).
	h := newHarness(t, 1, transport.Config{})
	lst, _ := h.site(1).CreateObject(KindList, "L", nil)
	var child ObjRef
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		c, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindInt, Value: int64(0)})
		child = c
		return err
	}}).Wait(); !res.Committed {
		t.Fatal("setup")
	}

	rec := &recorder{}
	if _, err := h.site(1).AttachView([]ObjRef{lst}, Optimistic, rec.fns()); err != nil {
		t.Fatal(err)
	}
	h.eventually(time.Second, "initial", func() bool {
		ups, _ := rec.snapshot()
		return len(ups) >= 1
	})
	if res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		return tx.Write(child, int64(7))
	}}).Wait(); !res.Committed {
		t.Fatal("child write")
	}
	h.eventually(time.Second, "child change notification", func() bool {
		ups, _ := rec.snapshot()
		last := ups[len(ups)-1]
		v, _ := last.Values[lst.ID()].([]any)
		return len(v) == 1 && v[0] == int64(7)
	})
}

func TestCompositeKindChecks(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	lst, _ := h.site(1).CreateObject(KindList, "L", nil)
	num, _ := h.site(1).CreateObject(KindInt, "n", int64(0))
	res := h.site(1).Submit(&Txn{Execute: func(tx *Tx) error {
		if _, err := tx.ListAppend(num, wire.ChildDecl{Kind: KindInt}); err == nil {
			return fmt.Errorf("ListAppend on int succeeded")
		}
		if _, _, err := tx.TupleGet(lst, "k"); err == nil {
			return fmt.Errorf("TupleGet on list succeeded")
		}
		if err := tx.Write(lst, int64(1)); err == nil {
			return fmt.Errorf("scalar Write on list succeeded")
		}
		if _, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindAssociation}); err == nil {
			return fmt.Errorf("embedding an association succeeded")
		}
		return nil
	}}).Wait()
	if !res.Committed {
		t.Fatalf("checks failed: %+v", res)
	}
}
