package centralized

import (
	"testing"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

func setup(t *testing.T, clients int, latency time.Duration) (*Server, []*Client) {
	t.Helper()
	net := transport.NewNetwork(transport.Config{Latency: latency})
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
	t.Cleanup(func() {
		net.Close()
		srv.Stop()
		for _, c := range cs {
			c.Stop()
		}
	})
	return srv, cs
}

func TestCentralizedEcho(t *testing.T) {
	srv, cs := setup(t, 2, time.Millisecond)
	select {
	case <-cs[0].Write("x", int64(5)):
	case <-time.After(2 * time.Second):
		t.Fatal("echo never arrived")
	}
	if srv.Get("x") != int64(5) {
		t.Fatal("server state not updated")
	}
	if cs[0].Get("x") != int64(5) {
		t.Fatal("writer view not updated")
	}
	// The other client's view also converges.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cs[1].Get("x") == int64(5) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("peer view not updated")
}

func TestCentralizedRoundTripLatency(t *testing.T) {
	// The architecture's defining cost: a client's own action becomes
	// visible to it only after ~2t (paper §1 motivation for replication).
	const lat = 15 * time.Millisecond
	_, cs := setup(t, 1, lat)
	start := time.Now()
	select {
	case <-cs[0].Write("x", int64(1)):
	case <-time.After(2 * time.Second):
		t.Fatal("echo never arrived")
	}
	elapsed := time.Since(start)
	if elapsed < 2*lat {
		t.Fatalf("round trip %v, want >= 2t = %v", elapsed, 2*lat)
	}
	if elapsed > 4*lat {
		t.Fatalf("round trip %v suspiciously slow", elapsed)
	}
}

func TestCentralizedEchoCallback(t *testing.T) {
	_, cs := setup(t, 2, time.Millisecond)
	got := make(chan any, 1)
	cs[1].OnEcho(func(name string, value any) {
		if name == "y" {
			select {
			case got <- value:
			default:
			}
		}
	})
	<-cs[0].Write("y", "hello")
	select {
	case v := <-got:
		if v != "hello" {
			t.Fatalf("echo value = %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer echo callback never fired")
	}
}

// TestQuiescent pins what the virtual-time harness relies on: an idle
// loop and a stopped one both report quiescent, without blocking.
func TestQuiescent(t *testing.T) {
	srv, cs := setup(t, 1, 0)
	if !srv.Quiescent() || !cs[0].Quiescent() {
		t.Fatal("idle server or client not quiescent")
	}
	srv.Stop()
	cs[0].Stop()
	if !srv.Quiescent() || !cs[0].Quiescent() {
		t.Fatal("stopped server or client not quiescent")
	}
}
