package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"decaf/internal/ids"
	"decaf/internal/repgraph"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

func TestAuthorizerDeniesJoin(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	ref1, _ := h.site(1).CreateObject(KindInt, "secret", int64(0))

	h.site(1).SetAuthorizer(func(req AuthRequest) error {
		if req.Kind == AuthJoin && req.Requester == 2 {
			return errors.New("site 2 is not trusted")
		}
		return nil
	})

	ref2, _ := h.site(2).CreateObject(KindInt, "secret", int64(0))
	res := h.site(2).JoinObject(ref2, 1, ref1.ID()).Wait()
	if res.Committed || res.Err == nil {
		t.Fatalf("unauthorized join: %+v", res)
	}
	sites, _ := h.site(1).ReplicaSites(ref1)
	if len(sites) != 1 {
		t.Fatalf("graph grew despite denial: %v", sites)
	}
}

func TestAuthorizerAllowsSelectedJoin(t *testing.T) {
	h := newHarness(t, 3, transport.Config{})
	ref1, _ := h.site(1).CreateObject(KindInt, "doc", int64(0))
	h.site(1).SetAuthorizer(func(req AuthRequest) error {
		if req.Kind == AuthJoin && req.Requester == 3 {
			return errors.New("no")
		}
		return nil
	})
	ref2, _ := h.site(2).CreateObject(KindInt, "doc", int64(0))
	if res := h.site(2).JoinObject(ref2, 1, ref1.ID()).Wait(); !res.Committed {
		t.Fatalf("authorized join denied: %+v", res)
	}
	ref3, _ := h.site(3).CreateObject(KindInt, "doc", int64(0))
	if res := h.site(3).JoinObject(ref3, 1, ref1.ID()).Wait(); res.Committed {
		t.Fatal("unauthorized join succeeded")
	}
}

func TestAuthorizerDeniesRemoteWrite(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	refs := h.joined(KindInt, "x", int64(0), 1, 2)

	// After joining, site 1 (the primary) stops accepting writes from
	// site 2: every remote transaction aborts at its origin.
	h.site(1).SetAuthorizer(func(req AuthRequest) error {
		if req.Kind == AuthWrite && req.Requester == 2 {
			return errors.New("read-only collaborator")
		}
		return nil
	})

	// Writes from site 1 (the owner) still work.
	if res := h.setInt(1, refs[1], 5); !res.Committed {
		t.Fatalf("owner write: %+v", res)
	}
	h.eventually(2*time.Second, "owner write replicates", func() bool {
		return h.committedInt(2, refs[2]) == 5
	})

	// A write from site 2 is denied at the primary and aborts after the
	// retry budget (the denial is not transient).
	net2 := h.site(2)
	done := make(chan Result, 1)
	go func() {
		done <- net2.Submit(&Txn{Execute: func(tx *Tx) error { return tx.Write(refs[2], int64(9)) }}).Wait()
	}()
	select {
	case res := <-done:
		if res.Committed {
			t.Fatalf("unauthorized write committed: %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("unauthorized write never resolved")
	}
	// The optimistic local value was rolled back.
	if v, _ := h.site(2).ReadCurrent(refs[2]); v != int64(5) {
		t.Fatalf("current at site 2 = %v, want rolled back to 5", v)
	}
}

func TestAuthorizerCleared(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	ref1, _ := h.site(1).CreateObject(KindInt, "x", int64(0))
	h.site(1).SetAuthorizer(func(req AuthRequest) error { return errors.New("locked") })
	ref2, _ := h.site(2).CreateObject(KindInt, "x", int64(0))
	if res := h.site(2).JoinObject(ref2, 1, ref1.ID()).Wait(); res.Committed {
		t.Fatal("join while locked succeeded")
	}
	h.site(1).SetAuthorizer(nil)
	ref2b, _ := h.site(2).CreateObject(KindInt, "x", int64(0))
	if res := h.site(2).JoinObject(ref2b, 1, ref1.ID()).Wait(); !res.Committed {
		t.Fatalf("join after unlock failed: %+v", res)
	}
}

func TestAuthKindString(t *testing.T) {
	for k, want := range map[AuthKind]string{AuthJoin: "join", AuthWrite: "write", AuthRead: "read"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := AuthKind(99).String(); got != "AuthKind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestAuthorizerErrorCarriesContext(t *testing.T) {
	h := newHarness(t, 2, transport.Config{})
	ref1, _ := h.site(1).CreateObject(KindInt, "vault", int64(0))
	h.site(1).SetAuthorizer(func(req AuthRequest) error {
		return fmt.Errorf("policy says no to %s", req.Desc)
	})
	ref2, _ := h.site(2).CreateObject(KindInt, "vault", int64(0))
	res := h.site(2).JoinObject(ref2, 1, ref1.ID()).Wait()
	if res.Err == nil {
		t.Fatal("no error")
	}
	if !errors.Is(res.Err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted wrap", res.Err)
	}
}

// TestAuthorizerJudgesTheTransportSender delivers a CONFIRM-READ and a
// JOIN-REQUEST from remote site 2 to a site whose authorizer denies site 2.
// Both are denied: the requester the authorizer judges is the sender as
// the transport names it, so nothing in a message can pass it off as the
// receiver itself, whose own requests skip the authorizer.
func TestAuthorizerJudgesTheTransportSender(t *testing.T) {
	e := newPCEnv(t)
	s, x := e.s, e.objs["x"]
	var asked []AuthRequest
	s.authorizer = func(req AuthRequest) error {
		asked = append(asked, req)
		if req.Requester == 2 {
			return errors.New("site 2 is not trusted")
		}
		return nil
	}
	vt := vtime.VT{Time: 100, Site: 2}
	deliver := func(m wire.Message) {
		s.beginBatch()
		s.handleEvent(transport.Event{Kind: transport.EventMessage, From: 2, SentAt: vt, Msg: m})
	}

	deliver(wire.ConfirmRead{TxnVT: vt, ReqID: 7, Checks: []wire.ReadCheck{{Target: x.id, ReadVT: pcRead, GraphVT: pcGraph}}})
	if c := lastSent[wire.Confirm](e, 2); c.ReqID != 7 || c.OK || !strings.Contains(c.Reason, ErrUnauthorized.Error()) {
		t.Errorf("CONFIRM-READ from site 2 answered %+v, want an unauthorized denial", c)
	}

	a := ids.ObjectID{Site: 2, Seq: 99}
	deliver(wire.JoinRequest{TxnVT: vt, ReqID: 8, AObj: a, BObj: x.id, GraphA: repgraph.NewGraph(a, 2).ToWire()})
	if r := lastSent[wire.JoinReply](e, 2); r.ReqID != 8 || r.OK || !strings.Contains(r.Reason, ErrUnauthorized.Error()) {
		t.Errorf("JOIN-REQUEST from site 2 answered %+v, want an unauthorized denial", r)
	}

	want := []AuthRequest{
		{Kind: AuthRead, Object: x.id, Desc: x.desc, Requester: 2},
		{Kind: AuthJoin, Object: x.id, Desc: x.desc, Requester: 2},
	}
	if !slices.Equal(asked, want) {
		t.Errorf("authorizer asked %+v, want %+v", asked, want)
	}
}
