package centralized

import (
	"testing"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// setup attaches a server (site 1) and clients (sites 2..) to a
// zero-latency network, which delivers every send into the destination's
// inbox at once.
func setup(t *testing.T, clients int) (*Server, []*Client) {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	t.Cleanup(net.Close)
	serverID := vtime.SiteID(1)
	var clientIDs []vtime.SiteID
	for i := 0; i < clients; i++ {
		clientIDs = append(clientIDs, vtime.SiteID(i+2))
	}
	sep, err := net.Endpoint(serverID)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sep, clientIDs)
	var cs []*Client
	for _, id := range clientIDs {
		cep, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, NewClient(cep, serverID))
	}
	return srv, cs
}

// stepAll steps the server and then every client until a full pass
// finds no work.
func stepAll(srv *Server, cs []*Client) {
	for busy := true; busy; {
		busy = srv.Step()
		for _, c := range cs {
			busy = c.Step() || busy
		}
	}
}

func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestCentralizedEcho(t *testing.T) {
	srv, cs := setup(t, 2)
	echoed := cs[0].Write("x", int64(5))
	stepAll(srv, cs)
	if !closed(echoed) {
		t.Fatal("echo never arrived")
	}
	if srv.Get("x") != int64(5) {
		t.Fatal("server state not updated")
	}
	if cs[0].Get("x") != int64(5) {
		t.Fatal("writer view not updated")
	}
	if cs[1].Get("x") != int64(5) {
		t.Fatal("peer view not updated")
	}
}

// TestCentralizedRoundTripLatency pins the architecture's defining cost:
// a client's own action becomes visible to it only after the round trip
// to the server and back, 2t (paper §1 motivation for replication).
func TestCentralizedRoundTripLatency(t *testing.T) {
	srv, cs := setup(t, 1)
	c := cs[0]
	echoed := c.Write("x", int64(1))
	if c.Step() || closed(echoed) || c.Get("x") != nil {
		t.Fatal("the write showed before reaching the server")
	}
	if !srv.Step() || srv.Get("x") != int64(1) {
		t.Fatal("the server did not apply the write (hop 1)")
	}
	if closed(echoed) || c.Get("x") != nil {
		t.Fatal("the write showed before the echo was handled")
	}
	if !c.Step() || !closed(echoed) || c.Get("x") != int64(1) {
		t.Fatal("the echo did not make the write visible (hop 2)")
	}
}

func TestCentralizedEchoCallback(t *testing.T) {
	srv, cs := setup(t, 2)
	var got []any
	cs[1].OnEcho(func(name string, value any) {
		if name == "y" {
			got = append(got, value)
		}
	})
	cs[0].Write("y", "hello")
	stepAll(srv, cs)
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("peer echo callback saw %v, want [hello]", got)
	}
}
