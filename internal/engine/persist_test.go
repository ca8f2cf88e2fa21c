package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

func TestCheckpointRestoreScalars(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	s := h.site(1)
	i1, _ := s.CreateObject(KindInt, "n", int64(0))
	s1, _ := s.CreateObject(KindString, "s", "initial")
	f1, _ := s.CreateObject(KindFloat, "f", 2.5)
	if res := s.Submit(&Txn{Execute: func(tx *Tx) error {
		if err := tx.Write(i1, int64(42)); err != nil {
			return err
		}
		return tx.Write(s1, "written")
	}}).Wait(); !res.Committed {
		t.Fatal("setup txn failed")
	}

	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh site with the same ID on a new network.
	net2 := transport.NewNetwork(transport.Config{})
	defer net2.Close()
	ep, _ := net2.Endpoint(1)
	s2 := NewSite(ep, Options{})
	s2.Start()
	defer s2.Stop()
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	// Same IDs, same committed values.
	for _, tc := range []struct {
		ref  ObjRef
		want any
	}{{i1, int64(42)}, {s1, "written"}, {f1, 2.5}} {
		r2, ok := s2.Object(tc.ref.ID())
		if !ok {
			t.Fatalf("object %v missing after restore", tc.ref.ID())
		}
		v, _ := s2.ReadCommitted(r2)
		if v != tc.want {
			t.Fatalf("restored %v = %v, want %v", tc.ref.ID(), v, tc.want)
		}
	}

	// The restored site keeps working: new transactions commit.
	r2, _ := s2.Object(i1.ID())
	if res := s2.Submit(&Txn{Execute: func(tx *Tx) error {
		v, _ := tx.Read(r2)
		return tx.Write(r2, v.(int64)+1)
	}}).Wait(); !res.Committed {
		t.Fatalf("post-restore txn: %+v", res)
	}
	if v, _ := s2.ReadCommitted(r2); v != int64(43) {
		t.Fatalf("post-restore value = %v", v)
	}
}

func TestCheckpointRestoreComposites(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	s := h.site(1)
	lst, _ := s.CreateObject(KindList, "todo", nil)
	if res := s.Submit(&Txn{Execute: func(tx *Tx) error {
		if _, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindString, Value: "a"}); err != nil {
			return err
		}
		item, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindTuple})
		if err != nil {
			return err
		}
		if _, err := tx.TupleSet(item, "k", wire.ChildDecl{Kind: KindInt, Value: int64(7)}); err != nil {
			return err
		}
		return nil
	}}).Wait(); !res.Committed {
		t.Fatal("setup failed")
	}
	want, _ := s.ReadCommitted(lst)

	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	net2 := transport.NewNetwork(transport.Config{})
	defer net2.Close()
	ep, _ := net2.Endpoint(1)
	s2 := NewSite(ep, Options{})
	s2.Start()
	defer s2.Stop()
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	r2, ok := s2.Object(lst.ID())
	if !ok {
		t.Fatal("list missing after restore")
	}
	got, _ := s2.ReadCommitted(r2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored list = %v, want %v", got, want)
	}
}

func TestRestoredCollaborationResumes(t *testing.T) {
	// Both members checkpoint a quiesced collaboration; a "cold restart"
	// restores both, and because object IDs and graphs persist, the
	// replica relationship resumes without a new join.
	net := transport.NewNetwork(transport.Config{Latency: time.Millisecond})
	ep1, _ := net.Endpoint(1)
	ep2, _ := net.Endpoint(2)
	s1 := NewSite(ep1, Options{})
	s2 := NewSite(ep2, Options{})
	s1.Start()
	s2.Start()

	r1, _ := s1.CreateObject(KindInt, "x", int64(0))
	r2, _ := s2.CreateObject(KindInt, "x", int64(0))
	if res := s2.JoinObject(r2, 1, r1.ID()).Wait(); !res.Committed {
		t.Fatalf("join: %+v", res)
	}
	if res := s1.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(r1, int64(9)) }}).Wait(); !res.Committed {
		t.Fatal("write failed")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if v, _ := s2.ReadCommitted(r2); v == int64(9) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var cp1, cp2 bytes.Buffer
	if err := s1.Checkpoint(&cp1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(&cp2); err != nil {
		t.Fatal(err)
	}
	s1.Stop()
	s2.Stop()
	net.Close()

	// Cold restart on a new network.
	net2 := transport.NewNetwork(transport.Config{Latency: time.Millisecond})
	defer net2.Close()
	ep1b, _ := net2.Endpoint(1)
	ep2b, _ := net2.Endpoint(2)
	s1b := NewSite(ep1b, Options{})
	s2b := NewSite(ep2b, Options{})
	s1b.Start()
	s2b.Start()
	defer s1b.Stop()
	defer s2b.Stop()
	if err := s1b.Restore(&cp1); err != nil {
		t.Fatal(err)
	}
	if err := s2b.Restore(&cp2); err != nil {
		t.Fatal(err)
	}

	r1b, ok := s1b.Object(r1.ID())
	if !ok {
		t.Fatal("r1 missing")
	}
	r2b, ok := s2b.Object(r2.ID())
	if !ok {
		t.Fatal("r2 missing")
	}
	sites, _ := s1b.ReplicaSites(r1b)
	if len(sites) != 2 {
		t.Fatalf("restored graph = %v, want 2 sites", sites)
	}

	// Replication works immediately after restore.
	if res := s2b.Submit(&Txn{Execute: func(tx *Tx) error {
		v, _ := tx.Read(r2b)
		return tx.Write(r2b, v.(int64)+1)
	}}).Wait(); !res.Committed {
		t.Fatalf("post-restore replicated txn: %+v", res)
	}
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if v, _ := s1b.ReadCommitted(r1b); v == int64(10) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	v, _ := s1b.ReadCommitted(r1b)
	t.Fatalf("post-restore replication failed: site 1 sees %v, want 10", v)
}

func TestRestoreRejectsWrongSite(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	var buf bytes.Buffer
	if err := h.site(1).Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if err := h.site(2).Restore(&buf); err == nil {
		t.Fatal("restore into wrong site succeeded")
	}
}

func TestRestoreRejectsNonFreshSite(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	var buf bytes.Buffer
	if err := h.site(1).Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// The site already has... nothing. Create one object, then restore
	// must fail.
	if _, err := h.site(1).CreateObject(KindInt, "x", int64(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.site(1).Restore(&buf); err == nil {
		t.Fatal("restore into non-fresh site succeeded")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	if err := h.site(1).Restore(bytes.NewBufferString("not a checkpoint")); err == nil {
		t.Fatal("garbage restore succeeded")
	}
}

func TestObjectsListing(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	a, _ := h.site(1).CreateObject(KindInt, "a", int64(0))
	b, _ := h.site(1).CreateObject(KindList, "b", nil)
	refs, err := h.site(1).Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("Objects() = %d refs, want 2", len(refs))
	}
	if refs[0].ID() != a.ID() || refs[1].ID() != b.ID() {
		t.Fatalf("Objects() order: %v, %v", refs[0].ID(), refs[1].ID())
	}
}

// TestCheckpointDeterministic pins the maporder fix in Checkpoint:
// encoding iterates s.objects in ID order, so checkpointing the same
// state repeatedly yields byte-identical output. Before the fix the
// object section followed Go's randomized map order and the bytes
// differed between calls (with ~12 objects, the odds of two identical
// orders are below 1e-8).
func TestCheckpointDeterministic(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	s := h.site(1)
	for i := 0; i < 12; i++ {
		if _, err := s.CreateObject(KindInt, fmt.Sprintf("n%02d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	lst, _ := s.CreateObject(KindList, "todo", nil)
	if res := s.Submit(&Txn{Execute: func(tx *Tx) error {
		_, err := tx.ListAppend(lst, wire.ChildDecl{Kind: KindString, Value: "x"})
		return err
	}}).Wait(); !res.Committed {
		t.Fatal("setup failed")
	}

	var first bytes.Buffer
	if err := s.Checkpoint(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), buf.Bytes()) {
			t.Fatalf("checkpoint %d is not byte-identical to the first (nondeterministic encode order)", i+2)
		}
	}
}

// TestCheckpointRoundTripStable: checkpoint -> restore into a fresh
// same-ID site -> checkpoint again must reproduce the same object
// section. Restore rebuilds s.objects as a map, so this fails if either
// encode leaks map iteration order. Site-local header fields that
// legitimately move (the clock advances on restore) are normalized
// before comparing.
func TestCheckpointRoundTripStable(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	s := h.site(1)
	for i := 0; i < 12; i++ {
		if _, err := s.CreateObject(KindInt, fmt.Sprintf("m%02d", i), int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}

	var buf1 bytes.Buffer
	if err := s.Checkpoint(&buf1); err != nil {
		t.Fatal(err)
	}
	raw1 := append([]byte(nil), buf1.Bytes()...)

	net2 := transport.NewNetwork(transport.Config{})
	defer net2.Close()
	ep, _ := net2.Endpoint(1)
	s2 := NewSite(ep, Options{})
	s2.Start()
	defer s2.Stop()
	if err := s2.Restore(&buf1); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := s2.Checkpoint(&buf2); err != nil {
		t.Fatal(err)
	}

	normalize := func(raw []byte) []byte {
		cp, err := wire.DecodeCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		cp.Clock = vtime.VT{}
		cp.NextSeq = 0
		out, err := wire.EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(normalize(raw1), normalize(buf2.Bytes())) {
		t.Fatal("object section changed across checkpoint/restore round trip")
	}
}

// TestRestoreKeepsEmptyTupleKeyPath restores a tuple child under the
// empty key. A restore that reads the slot kind from the key instead of
// the parent gives the child a list element's name, which its own tuple
// parent cannot resolve, so replicas would drop its updates.
func TestRestoreKeepsEmptyTupleKeyPath(t *testing.T) {
	h := newHarness(t, 1, transport.Config{})
	s := h.site(1)
	tup, _ := s.CreateObject(KindTuple, "t", nil)
	var child ObjRef
	if res := s.Submit(&Txn{Execute: func(tx *Tx) error {
		var err error
		child, err = tx.TupleSet(tup, "", wire.ChildDecl{Kind: KindInt, Value: int64(3)})
		return err
	}}).Wait(); !res.Committed {
		t.Fatalf("set: %+v", res)
	}
	var want wire.PathElem
	_ = s.call(func() { want = child.o.parentLink })

	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := freshSite(t, 1, Options{})
	if err := s2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	tup2, _ := s2.Object(tup.ID())
	var links []wire.PathElem
	var resolves bool
	_ = s2.call(func() {
		for _, c := range tup2.o.children {
			links = append(links, c.parentLink)
			got, _, _ := tup2.o.resolvePath(c.pathFromRoot(), false)
			resolves = got == c
		}
	})
	if len(links) != 1 || links[0] != want || !resolves {
		t.Fatalf("restored slots %v (own path resolves: %v), want [%+v]", links, resolves, want)
	}
	if v, _ := s2.ReadCommitted(tup2); !reflect.DeepEqual(v, map[string]any{"": int64(3)}) {
		t.Fatalf("restored tuple = %v", v)
	}
}
