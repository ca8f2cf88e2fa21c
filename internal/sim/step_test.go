package sim

import (
	"runtime"
	"testing"
	"time"

	"decaf/internal/engine"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// TestStepDrainsInboxBacklog: one clock event delivers 1,200
// CONFIRM-READs to a site whose Events channel holds 16, so most of them
// wait in the inbox backlog while a pump moves them over. A Step that
// finds the channel empty while the pump still holds the head is not
// idle: the driver's fixed point must handle every message, and in
// arrival order, which the site's replies show through their ReqIDs.
func TestStepDrainsInboxBacklog(t *testing.T) {
	const n = 1200
	l := &lockstep{clock: NewClock()}
	net := transport.NewNetwork(transport.Config{QueueSize: 16, Clock: l.clock})
	defer net.Close()
	ep, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	site := engine.NewSite(ep, engine.Options{Scheduler: l.clock})
	defer site.Stop()
	l.members = []member{site}

	sentAt := vtime.VT{Time: 1, Site: 2}
	msgs := make([]wire.Message, n)
	for i := range msgs {
		msgs[i] = wire.ConfirmRead{TxnVT: sentAt, ReqID: uint64(i + 1)}
	}
	l.clock.AfterFunc(0, func() {
		if err := peer.SendBatch(1, sentAt, msgs); err != nil {
			t.Error(err)
		}
	})
	if err := l.drain(); err != nil {
		t.Fatal(err)
	}

	// Replies are delivered on the driver's goroutine as the site sends
	// them, so at the fixed point they are all in the peer's inbox.
	if got := peer.(interface{ Accepted() uint64 }).Accepted(); got != n {
		t.Fatalf("the fixed point ended with %d of %d messages answered", got, n)
	}
	timeout := time.After(10 * time.Second)
	for want := uint64(1); want <= n; want++ {
		select {
		case ev := <-peer.Events():
			if c, ok := ev.Msg.(wire.Confirm); !ok || c.ReqID != want {
				t.Fatalf("reply %d is %#v, want the Confirm of ReqID %d", want, ev.Msg, want)
			}
		case <-timeout:
			t.Fatalf("reply %d never arrived", want)
		}
	}
}

// TestSimRunStartsNoGoroutine: a simulated run steps its sites on the
// caller's goroutine, so none starts while it runs.
func TestSimRunStartsNoGoroutine(t *testing.T) {
	p, ok := ProfileByName("smoke")
	if !ok {
		t.Fatal("no smoke profile")
	}
	before, during := runtime.NumGoroutine(), 0
	res := Run(p, 1, func(map[vtime.SiteID]*engine.Site, map[string][]engine.ObjRef) {
		during = runtime.NumGoroutine()
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if during > before {
		t.Fatalf("%d goroutines during the run, %d before it", during, before)
	}
}
