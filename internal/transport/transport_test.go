package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"decaf/internal/vtime"
	"decaf/internal/wire"
)

func msg(n uint64) wire.Message {
	return wire.Outcome{TxnVT: vtime.VT{Time: n, Site: 1}, Committed: true}
}

func recvOne(t *testing.T, ep Endpoint, timeout time.Duration) Event {
	t.Helper()
	select {
	case ev, ok := <-ep.Events():
		if !ok {
			t.Fatal("events channel closed")
		}
		return ev
	case <-time.After(timeout):
		t.Fatal("timed out waiting for event")
		return Event{}
	}
}

func TestNetworkBasicDelivery(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a, err := n.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}

	sent := vtime.VT{Time: 7, Site: 1}
	if err := a.Send(2, sent, msg(1)); err != nil {
		t.Fatal(err)
	}
	ev := recvOne(t, b, time.Second)
	if ev.Kind != EventMessage || ev.From != 1 || ev.SentAt != sent {
		t.Fatalf("event = %+v", ev)
	}
	if out, ok := ev.Msg.(wire.Outcome); !ok || out.TxnVT.Time != 1 {
		t.Fatalf("msg = %#v", ev.Msg)
	}
}

func TestNetworkDuplicateAttach(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	if _, err := n.Endpoint(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint(1); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestNetworkUnknownDestination(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a, _ := n.Endpoint(1)
	if err := a.Send(99, vtime.Zero, msg(1)); err != ErrUnknownSite {
		t.Fatalf("err = %v, want ErrUnknownSite", err)
	}
}

func TestNetworkFIFOPerLink(t *testing.T) {
	// Heavy jitter must not reorder messages on a single link.
	n := NewNetwork(Config{Latency: time.Millisecond, Jitter: 5 * time.Millisecond, Seed: 42})
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)

	const count = 50
	for i := uint64(0); i < count; i++ {
		if err := a.Send(2, vtime.Zero, msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < count; i++ {
		ev := recvOne(t, b, 2*time.Second)
		got := ev.Msg.(wire.Outcome).TxnVT.Time
		if got != i {
			t.Fatalf("message %d arrived out of order (got %d)", i, got)
		}
	}
}

func TestNetworkLatency(t *testing.T) {
	const lat = 30 * time.Millisecond
	n := NewNetwork(Config{Latency: lat})
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)

	start := time.Now()
	if err := a.Send(2, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	elapsed := time.Since(start)
	if elapsed < lat {
		t.Fatalf("delivered in %v, want >= %v", elapsed, lat)
	}
	if elapsed > 10*lat {
		t.Fatalf("delivered in %v, suspiciously slow for latency %v", elapsed, lat)
	}
}

func TestNetworkLatencyFn(t *testing.T) {
	n := NewNetwork(Config{
		Latency: time.Hour, // would hang if used
		LatencyFn: func(from, to vtime.SiteID) time.Duration {
			return time.Millisecond
		},
	})
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	if err := a.Send(2, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
}

func TestNetworkKill(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	c, _ := n.Endpoint(3)

	n.Kill(3)

	// Survivors are notified.
	for _, ep := range []Endpoint{a, b} {
		ev := recvOne(t, ep, time.Second)
		if ev.Kind != EventSiteFailed || ev.Failed != 3 {
			t.Fatalf("event = %+v, want SiteFailed(3)", ev)
		}
	}
	// Sends to the dead site fail.
	if err := a.Send(3, vtime.Zero, msg(1)); err != ErrSiteDown {
		t.Fatalf("send to dead site: err = %v, want ErrSiteDown", err)
	}
	// The dead site's event channel closes.
	select {
	case _, ok := <-c.Events():
		if ok {
			t.Fatal("dead site received an event")
		}
	case <-time.After(time.Second):
		t.Fatal("dead site's channel not closed")
	}
	if n.Alive(3) {
		t.Fatal("killed site reported alive")
	}
	if !n.Alive(1) {
		t.Fatal("live site reported dead")
	}
}

func TestNetworkKillOrderingBeforeFailureNotice(t *testing.T) {
	// Messages sent before the kill must be delivered before the failure
	// notification on the same link (fail-stop semantics).
	n := NewNetwork(Config{Latency: 5 * time.Millisecond})
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	_ = b

	if err := a.Send(2, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	n.Kill(1)

	ev1 := recvOne(t, b, time.Second)
	if ev1.Kind != EventMessage {
		t.Fatalf("first event = %+v, want the message", ev1)
	}
	ev2 := recvOne(t, b, time.Second)
	if ev2.Kind != EventSiteFailed || ev2.Failed != 1 {
		t.Fatalf("second event = %+v, want SiteFailed(1)", ev2)
	}
}

func TestNetworkPartitionAndHeal(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)

	n.Partition(1, 2)
	if err := a.Send(2, vtime.Zero, msg(1)); err != nil {
		t.Fatalf("partitioned send should silently drop, got %v", err)
	}
	select {
	case ev := <-b.Events():
		t.Fatalf("received %+v across partition", ev)
	case <-time.After(50 * time.Millisecond):
	}

	n.Heal(1, 2)
	if err := a.Send(2, vtime.Zero, msg(2)); err != nil {
		t.Fatal(err)
	}
	ev := recvOne(t, b, time.Second)
	if ev.Msg.(wire.Outcome).TxnVT.Time != 2 {
		t.Fatalf("got %+v after heal", ev)
	}
}

func TestNetworkCloseIdempotent(t *testing.T) {
	n := NewNetwork(Config{})
	a, _ := n.Endpoint(1)
	b, _ := n.Endpoint(2)
	_ = a.Send(2, vtime.Zero, msg(1))
	_ = b
	n.Close()
	n.Close()
	if _, err := n.Endpoint(5); err == nil {
		t.Fatal("attach after close succeeded")
	}
}

func TestTCPBasicExchange(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peersB := map[vtime.SiteID]string{1: a.Addr().String()}
	b, err := ListenTCP(2, "127.0.0.1:0", peersB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	sent := vtime.VT{Time: 3, Site: 2}
	if err := b.Send(1, sent, msg(11)); err != nil {
		t.Fatal(err)
	}
	ev := recvOne(t, a, 2*time.Second)
	if ev.From != 2 || ev.SentAt != sent {
		t.Fatalf("event = %+v", ev)
	}
	if out := ev.Msg.(wire.Outcome); out.TxnVT.Time != 11 {
		t.Fatalf("msg = %#v", ev.Msg)
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", map[vtime.SiteID]string{1: a.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Give a its peer book after the fact: a dials using b's address.
	a.SetPeerAddr(2, b.Addr().String())

	if err := b.Send(1, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a, 2*time.Second)
	if err := a.Send(2, vtime.Zero, msg(2)); err != nil {
		t.Fatal(err)
	}
	ev := recvOne(t, b, 2*time.Second)
	if ev.Msg.(wire.Outcome).TxnVT.Time != 2 {
		t.Fatalf("got %+v", ev)
	}
}

func TestTCPFIFO(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", map[vtime.SiteID]string{1: a.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const count = 100
	for i := uint64(0); i < count; i++ {
		if err := b.Send(1, vtime.Zero, msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < count; i++ {
		ev := recvOne(t, a, 2*time.Second)
		if got := ev.Msg.(wire.Outcome).TxnVT.Time; got != i {
			t.Fatalf("message %d arrived as %d", i, got)
		}
	}
}

func TestTCPPeerFailureNotification(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", map[vtime.SiteID]string{1: a.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}

	if err := b.Send(1, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a, 2*time.Second)

	// Abrupt close of b: a's read loop errors and reports failure.
	b.Close()
	ev := recvOne(t, a, 2*time.Second)
	if ev.Kind != EventSiteFailed || ev.Failed != 2 {
		t.Fatalf("event = %+v, want SiteFailed(2)", ev)
	}
}

func TestTCPSendToUnknown(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(9, vtime.Zero, msg(1)); err != ErrUnknownSite {
		t.Fatalf("err = %v, want ErrUnknownSite", err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Batched-sender tests (binary codec + per-peer writer goroutine).
// ---------------------------------------------------------------------------

func TestTCPBatchedBurstFIFO(t *testing.T) {
	// A burst far larger than any single frame's batch limit must arrive
	// complete and in order: envelopes queued during a flush coalesce
	// into subsequent frames.
	a, err := ListenTCPOptions(1, "127.0.0.1:0", nil, TCPOptions{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCPOptions(2, "127.0.0.1:0", map[vtime.SiteID]string{1: a.Addr().String()}, TCPOptions{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const count = 2000
	for i := uint64(0); i < count; i++ {
		if err := b.Send(1, vtime.VT{Time: i, Site: 2}, msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < count; i++ {
		ev := recvOne(t, a, 5*time.Second)
		if got := ev.Msg.(wire.Outcome).TxnVT.Time; got != i {
			t.Fatalf("message %d arrived as %d", i, got)
		}
		if ev.SentAt.Time != i {
			t.Fatalf("message %d carried SentAt %v", i, ev.SentAt)
		}
	}
}

func TestTCPSendDoesNotBlockOnSlowPeer(t *testing.T) {
	// A peer that accepts the connection but never reads must not block
	// the sender's goroutine: once the socket and queue fill, Send drops
	// silently (live-peer overflow policy) and returns promptly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // held open, never read
		}
	}()

	a, err := ListenTCPOptions(1, "127.0.0.1:0",
		map[vtime.SiteID]string{2: ln.Addr().String()},
		TCPOptions{QueueSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	payload := wire.Confirm{TxnVT: vtime.VT{Time: 1, Site: 1}, Reason: string(make([]byte, 16<<10))}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Far more data than the socket buffers plus queue can hold.
		for i := 0; i < 5000; i++ {
			if err := a.Send(2, vtime.Zero, payload); err != nil {
				return // ErrSiteDown also proves we did not block
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a peer that never reads")
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

func TestTCPOverflowOnDeadPeer(t *testing.T) {
	// Once a peer has failed, sends report ErrSiteDown rather than
	// silently dropping.
	a, err := ListenTCPOptions(1, "127.0.0.1:0", nil, TCPOptions{QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", map[vtime.SiteID]string{1: a.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(1, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a, 2*time.Second)
	a.SetPeerAddr(2, b.Addr().String())

	b.Close()
	ev := recvOne(t, a, 2*time.Second)
	if ev.Kind != EventSiteFailed || ev.Failed != 2 {
		t.Fatalf("event = %+v, want SiteFailed(2)", ev)
	}
	if err := a.Send(2, vtime.Zero, msg(2)); err != ErrSiteDown {
		t.Fatalf("send to dead peer: err = %v, want ErrSiteDown", err)
	}
}

func TestTCPBatchedConcurrentSenders(t *testing.T) {
	// Many goroutines sending to the same peer: all messages arrive,
	// none duplicated, and the endpoint survives the race detector.
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", map[vtime.SiteID]string{1: a.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.Send(1, vtime.Zero, msg(uint64(w*per+i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for i := 0; i < workers*per; i++ {
		ev := recvOne(t, a, 5*time.Second)
		n := ev.Msg.(wire.Outcome).TxnVT.Time
		if seen[n] {
			t.Fatalf("message %d duplicated", n)
		}
		seen[n] = true
	}
}
