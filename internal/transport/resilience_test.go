package transport

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// tcpPair builds two connected TCP endpoints with the given options on
// the sender (site 2). Both address books are complete so either side
// can redial the other.
func tcpPair(t *testing.T, optsA, optsB TCPOptions) (a, b *TCP) {
	t.Helper()
	a, err := ListenTCPOptions(1, "127.0.0.1:0", nil, optsA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = ListenTCPOptions(2, "127.0.0.1:0",
		map[vtime.SiteID]string{1: a.Addr().String()}, optsB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.SetPeerAddr(2, b.Addr().String())
	return a, b
}

// collect drains events from ep into slices until the returned stop
// function is called.
func collect(ep Endpoint) (stop func() (msgs []Event, ctrl []Event)) {
	var mu sync.Mutex
	var msgs, ctrl []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range ep.Events() {
			mu.Lock()
			if ev.Kind == EventMessage {
				msgs = append(msgs, ev)
			} else {
				ctrl = append(ctrl, ev)
			}
			mu.Unlock()
		}
	}()
	return func() ([]Event, []Event) {
		ep.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		return msgs, ctrl
	}
}

func TestResilienceReconnectAfterKillNoFailure(t *testing.T) {
	faults := NewFaults()
	a, b := tcpPair(t, TCPOptions{}, TCPOptions{Faults: faults})

	const count = 50
	drain := collect(a)
	for i := uint64(0); i < count; i++ {
		if err := b.Send(1, vtime.Zero, msg(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i == 20 {
			// Let the first batch reach the wire, then cut the link
			// mid-stream.
			time.Sleep(20 * time.Millisecond)
			if n := faults.KillConnections(1); n == 0 {
				t.Fatal("no live connection to kill")
			}
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Reconnects == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Wait for the tail to arrive, then inspect.
	time.Sleep(300 * time.Millisecond)
	msgs, ctrl := drain()

	if len(ctrl) != 0 {
		t.Fatalf("control events after transient kill: %+v", ctrl)
	}
	if len(msgs) != count {
		t.Fatalf("delivered %d messages, want %d", len(msgs), count)
	}
	for i, ev := range msgs {
		if got := ev.Msg.(wire.Outcome).TxnVT.Time; got != uint64(i) {
			t.Fatalf("message %d arrived as %d (FIFO violated)", i, got)
		}
	}
	st := b.Stats()
	if st.Reconnects == 0 {
		t.Fatal("expected at least one reconnect")
	}
	if st.FailureEvents != 0 {
		t.Fatalf("sender declared failure: %+v", st)
	}
}

func TestResilienceSuspicionWindowExactlyOneFailure(t *testing.T) {
	// a has no dial address for site 2 (the connection was adopted), so
	// escalation is governed purely by the suspicion window.
	a, err := ListenTCPOptions(1, "127.0.0.1:0", nil, TCPOptions{
		Suspicion: SuspicionPolicy{Window: 150 * time.Millisecond},
	})
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
	b.Close()

	var failures int
	deadline := time.After(time.Second)
	for done := false; !done; {
		select {
		case ev := <-a.Events():
			if ev.Kind == EventSiteFailed && ev.Failed == 2 {
				failures++
			}
		case <-deadline:
			done = true
		}
	}
	if failures != 1 {
		t.Fatalf("failure events = %d, want exactly 1", failures)
	}
	if err := a.Send(2, vtime.Zero, msg(2)); err != ErrSiteDown {
		t.Fatalf("send after failure: err = %v, want ErrSiteDown", err)
	}
	if st := a.Stats(); st.FailureEvents != 1 {
		t.Fatalf("stats = %+v, want FailureEvents 1", st)
	}
}

func TestResilienceRecoveryEvent(t *testing.T) {
	a, err := ListenTCPOptions(1, "127.0.0.1:0", nil, TCPOptions{
		Suspicion: SuspicionPolicy{Window: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addr := map[vtime.SiteID]string{1: a.Addr().String()}
	b, err := ListenTCP(2, "127.0.0.1:0", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(1, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a, 2*time.Second)
	b.Close()

	if ev := recvOne(t, a, 2*time.Second); ev.Kind != EventSiteFailed || ev.Failed != 2 {
		t.Fatalf("event = %+v, want SiteFailed(2)", ev)
	}

	// Site 2 comes back as a fresh process (new incarnation) and dials
	// in again: a must un-suspect it and accept its traffic.
	b2, err := ListenTCP(2, "127.0.0.1:0", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := b2.Send(1, vtime.Zero, msg(7)); err != nil {
		t.Fatal(err)
	}
	var sawRecovered, sawMsg bool
	for !sawRecovered || !sawMsg {
		ev := recvOne(t, a, 2*time.Second)
		switch {
		case ev.Kind == EventSiteRecovered && ev.Failed == 2:
			sawRecovered = true
		case ev.Kind == EventMessage && ev.Msg.(wire.Outcome).TxnVT.Time == 7:
			sawMsg = true
		default:
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	// Outbound traffic to the recovered peer flows again over the
	// adopted connection.
	if err := a.Send(2, vtime.Zero, msg(8)); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
	if ev := recvOne(t, b2, 2*time.Second); ev.Msg.(wire.Outcome).TxnVT.Time != 8 {
		t.Fatalf("reply = %+v", ev)
	}
	if st := a.Stats(); st.RecoveryEvents != 1 {
		t.Fatalf("stats = %+v, want RecoveryEvents 1", st)
	}
}

func TestResilienceRefusedDialsThenConnect(t *testing.T) {
	faults := NewFaults()
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCPOptions(2, "127.0.0.1:0",
		map[vtime.SiteID]string{1: a.Addr().String()},
		TCPOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The first three dials fail; the default budget (6 attempts, 1s)
	// rides out the fault and the queued message survives.
	faults.RefuseDials(1, 3)
	if err := b.Send(1, vtime.Zero, msg(42)); err != nil {
		t.Fatal(err)
	}
	ev := recvOne(t, a, 2*time.Second)
	if ev.Msg.(wire.Outcome).TxnVT.Time != 42 {
		t.Fatalf("event = %+v", ev)
	}
	if got := faults.Refused(); got != 3 {
		t.Fatalf("refused dials = %d, want 3", got)
	}
	if st := b.Stats(); st.FailureEvents != 0 {
		t.Fatalf("transient refusals escalated: %+v", st)
	}
}

func TestResilienceDialBudgetExhausted(t *testing.T) {
	faults := NewFaults()
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCPOptions(2, "127.0.0.1:0",
		map[vtime.SiteID]string{1: a.Addr().String()},
		TCPOptions{Suspicion: SuspicionPolicy{MaxAttempts: 3, Window: -1}, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	faults.RefuseDials(1, 1000)
	if err := b.Send(1, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	ev := recvOne(t, b, 2*time.Second)
	if ev.Kind != EventSiteFailed || ev.Failed != 1 {
		t.Fatalf("event = %+v, want SiteFailed(1)", ev)
	}
	st := b.Stats()
	if st.Abandoned == 0 {
		t.Fatalf("stats = %+v, want Abandoned > 0 for the queued envelope", st)
	}
	if st.FailureEvents != 1 {
		t.Fatalf("stats = %+v, want FailureEvents 1", st)
	}
}

func TestResilienceDroppedFramesRetransmitOnReconnect(t *testing.T) {
	faults := NewFaults()
	a, b := tcpPair(t, TCPOptions{}, TCPOptions{Faults: faults})

	// Establish the link first so the drop hits a data frame.
	if err := b.Send(1, vtime.Zero, msg(0)); err != nil {
		t.Fatal(err)
	}
	if ev := recvOne(t, a, 2*time.Second); ev.Msg.(wire.Outcome).TxnVT.Time != 0 {
		t.Fatalf("event = %+v", ev)
	}

	// The next data frame vanishes in the network; the envelopes stay
	// retained (unacked) and ride the retransmit after the link flaps.
	faults.DropFrames(1, 1)
	if err := b.Send(1, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for faults.Dropped() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if faults.Dropped() != 1 {
		t.Fatal("injected frame drop never happened")
	}
	faults.KillConnections(1)

	ev := recvOne(t, a, 2*time.Second)
	if ev.Kind != EventMessage || ev.Msg.(wire.Outcome).TxnVT.Time != 1 {
		t.Fatalf("event = %+v, want the retransmitted message", ev)
	}
	if st := b.Stats(); st.Retransmits == 0 {
		t.Fatalf("stats = %+v, want Retransmits > 0", st)
	}
}

func TestResilienceKeepaliveProbes(t *testing.T) {
	a, b := tcpPair(t, TCPOptions{}, TCPOptions{ProbeInterval: 20 * time.Millisecond})

	if err := b.Send(1, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a, 2*time.Second)

	// Idle long enough for several probes; the link must stay healthy.
	time.Sleep(150 * time.Millisecond)
	st := b.Stats()
	if st.Keepalives == 0 {
		t.Fatalf("stats = %+v, want Keepalives > 0 after idle period", st)
	}
	if st.FailureEvents != 0 || st.Reconnects != 0 {
		t.Fatalf("idle probing disturbed the link: %+v", st)
	}
	if err := b.Send(1, vtime.Zero, msg(2)); err != nil {
		t.Fatal(err)
	}
	if ev := recvOne(t, a, 2*time.Second); ev.Msg.(wire.Outcome).TxnVT.Time != 2 {
		t.Fatalf("event = %+v", ev)
	}
}

func TestChaosFlapExactlyOnceFIFO(t *testing.T) {
	faults := NewFaults()
	a, b := tcpPair(t, TCPOptions{}, TCPOptions{Faults: faults})

	const count = 2000
	drain := collect(a)

	stopKiller := make(chan struct{})
	var killerDone sync.WaitGroup
	killerDone.Add(1)
	go func() {
		defer killerDone.Done()
		for {
			select {
			case <-stopKiller:
				return
			case <-time.After(15 * time.Millisecond):
				faults.KillConnections(1)
			}
		}
	}()

	for i := uint64(0); i < count; i++ {
		if err := b.Send(1, vtime.Zero, msg(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if i%100 == 0 {
			time.Sleep(time.Millisecond) // keep the queue inside its bound
		}
	}
	// Stop flapping and let the tail drain over a stable link.
	close(stopKiller)
	killerDone.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := b.Stats()
		if p := peerOf(b, 1); p != nil && p.ackedSeq.Load() >= count && st.FailureEvents == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	msgs, ctrl := drain()

	if len(ctrl) != 0 {
		t.Fatalf("control events during flaps: %+v", ctrl)
	}
	if len(msgs) != count {
		t.Fatalf("delivered %d messages, want %d (exactly-once violated)", len(msgs), count)
	}
	for i, ev := range msgs {
		if got := ev.Msg.(wire.Outcome).TxnVT.Time; got != uint64(i) {
			t.Fatalf("position %d holds message %d (FIFO violated)", i, got)
		}
	}
	st := b.Stats()
	if st.Reconnects == 0 {
		t.Fatal("flap test never reconnected — killer was ineffective")
	}
	t.Logf("stats after %d flaps: %+v", faults.Killed(), st)
}

// TestResilienceRecreatedSenderFreshIncarnation reproduces the
// asymmetric teardown: a declares b failed (its sender record and
// sequence state are torn down) while b never suspects a, so b keeps
// its dedup floor for a's old session. When a recovers b and sends
// again, the recreated sender restarts sequences at 1 — it must also
// announce a fresh incarnation, or b swallows the new envelopes as
// duplicates of the old session and its stale cumulative ack makes a
// prune them locally: silent message loss after EventSiteRecovered.
func TestResilienceRecreatedSenderFreshIncarnation(t *testing.T) {
	a, b := tcpPair(t, TCPOptions{}, TCPOptions{})

	var mu sync.Mutex
	var got []uint64
	go func() {
		for ev := range b.Events() {
			if ev.Kind == EventMessage {
				mu.Lock()
				got = append(got, ev.Msg.(wire.Outcome).TxnVT.Time)
				mu.Unlock()
			}
		}
	}()
	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	waitDelivered := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for delivered() < n && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if d := delivered(); d < n {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("delivered %d messages %v, want %d (lost after recovery)", d, got, n)
		}
	}

	// Raise b's dedup floor for a's first session.
	const warm = 5
	for i := uint64(0); i < warm; i++ {
		if err := a.Send(2, vtime.Zero, msg(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitDelivered(warm)

	// a unilaterally declares b failed; b never suspects a. Tearing the
	// sender down closes the link, so b redials and a adopts the new
	// connection, recreating its sender record for b.
	a.reportFailure(2)
	if ev := recvOne(t, a, 2*time.Second); ev.Kind != EventSiteFailed || ev.Failed != 2 {
		t.Fatalf("event = %+v, want SiteFailed(2)", ev)
	}
	if ev := recvOne(t, a, 2*time.Second); ev.Kind != EventSiteRecovered || ev.Failed != 2 {
		t.Fatalf("event = %+v, want SiteRecovered(2)", ev)
	}

	// The recreated sender numbers its envelopes from 1 again — all of
	// them below b's old floor of 5. Every one must still arrive.
	const after = 3
	for i := uint64(0); i < after; i++ {
		if err := a.Send(2, vtime.Zero, msg(100+i)); err != nil {
			t.Fatalf("send after recovery: %v", err)
		}
	}
	waitDelivered(warm + after)

	mu.Lock()
	tail := append([]uint64(nil), got[warm:]...)
	mu.Unlock()
	for i, v := range tail {
		if v != 100+uint64(i) {
			t.Fatalf("post-recovery messages = %v, want [100 101 102]", tail)
		}
	}
	if st := b.Stats(); st.FailureEvents != 0 {
		t.Fatalf("b suspected a: %+v", st)
	}
}

// TestResilienceFullRetainWindowStopsIntake pins the documented bound:
// when the retransmit window is full, the writer stops taking from the
// queue even on the idle path. The peer here is a raw sink that reads
// frames but never acks, so without the gate the writer would keep
// draining the queue and retained (and the wire) would grow without
// bound. What the writer does not take waits in the queue: nothing is
// dropped.
func TestResilienceFullRetainWindowStopsIntake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var sunk atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 32<<10)
				for {
					n, err := conn.Read(buf)
					sunk.Add(int64(n))
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	const retain = 8
	b, err := ListenTCPOptions(2, "127.0.0.1:0",
		map[vtime.SiteID]string{1: ln.Addr().String()},
		TCPOptions{
			MaxBatch:    4,
			RetainLimit: retain,
			AckTimeout:  -1, // never presume the silent peer dead
			Suspicion:   SuspicionPolicy{MaxAttempts: -1, Window: -1},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	send := func(n int, base uint64) {
		t.Helper()
		for i := uint64(0); i < uint64(n); i++ {
			if err := b.Send(1, vtime.Zero, msg(base+i)); err != nil {
				t.Fatalf("send %d: %v", base+i, err)
			}
		}
	}
	// waitQuiet waits for the wire to stop moving: three consecutive
	// stable reads mean the writer has sent everything it intends to.
	waitQuiet := func() int64 {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		prev, stable := int64(-1), 0
		for time.Now().Before(deadline) {
			cur := sunk.Load()
			if cur == prev {
				if stable++; stable >= 3 {
					return cur
				}
			} else {
				stable = 0
			}
			prev = cur
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatal("sink never went quiet")
		return 0
	}

	// Phase 1: fill the retransmit window (acks never come). The writer
	// takes exactly RetainLimit envelopes, sends them, and parks.
	const first = 100
	send(first, 0)
	quiet := waitQuiet()

	// Phase 2: with the window full and fully sent, the writer's idle
	// path must not take — the burst waits in the queue behind phase 1's
	// remainder, and nothing new may reach the wire. An ungated writer
	// drains the queue and keeps sending, growing the sink.
	const burst = 100
	send(burst, 1000)
	time.Sleep(200 * time.Millisecond)
	st := b.Stats()
	if n := sunk.Load(); n != quiet {
		t.Fatalf("sink grew from %d to %d bytes: writer pulled past a full retransmit window", quiet, n)
	}
	peer := b.debugState().(map[string]any)["peers"].(map[string]any)[vtime.SiteID(1).String()].(map[string]any)
	if got := peer["queue_depth"]; got != first+burst-retain {
		t.Fatalf("queue_depth = %v, want %d: the queue must hold everything the window did not take", got, first+burst-retain)
	}
	if st.Abandoned != 0 || st.Unencodable != 0 {
		t.Fatalf("envelopes were dropped: %+v", st)
	}
	if st.FailureEvents != 0 {
		t.Fatalf("withheld acks escalated to failure: %+v", st)
	}
}

// TestBatchEndByteCap pins the frame-payload byte bound: a batch splits
// before it would exceed maxBytes, a lone record always makes progress,
// and the envelope-count cap still applies.
func TestBatchEndByteCap(t *testing.T) {
	rec := func(seq uint64, n int) outRec { return outRec{seq: seq, data: make([]byte, n)} }
	retained := []outRec{rec(1, 10), rec(2, 10), rec(3, 50), rec(4, 10)}
	for _, tc := range []struct {
		name                              string
		sentIdx, maxBatch, maxBytes, want int
	}{
		{"bytes split the batch", 0, 512, 25, 2},
		{"oversized head still ships alone", 2, 512, 25, 3},
		{"count cap still applies", 0, 2, 1 << 20, 2},
		{"everything fits", 0, 512, 1 << 20, 4},
		{"empty tail", 4, 512, 1 << 20, 4},
		{"exact fit is not a split", 0, 512, 20, 2},
	} {
		if end := batchEnd(retained, tc.sentIdx, tc.maxBatch, tc.maxBytes); end != tc.want {
			t.Errorf("%s: batchEnd(sentIdx=%d, maxBatch=%d, maxBytes=%d) = %d, want %d",
				tc.name, tc.sentIdx, tc.maxBatch, tc.maxBytes, end, tc.want)
		}
	}
}

func TestChaosNetworkFaultDropDelay(t *testing.T) {
	faults := NewFaults()
	n := NewNetwork(Config{Faults: faults})
	defer n.Close()
	a, err := n.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}

	// First frame to site 2 is lost; the second arrives.
	faults.DropFrames(2, 1)
	if err := a.Send(2, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, vtime.Zero, msg(2)); err != nil {
		t.Fatal(err)
	}
	if ev := recvOne(t, b, time.Second); ev.Msg.(wire.Outcome).TxnVT.Time != 2 {
		t.Fatalf("event = %+v, want the second message only", ev)
	}

	// Injected delay slows delivery down.
	faults.DelayFrames(60 * time.Millisecond)
	start := time.Now()
	if err := a.Send(2, vtime.Zero, msg(3)); err != nil {
		t.Fatal(err)
	}
	if ev := recvOne(t, b, time.Second); ev.Msg.(wire.Outcome).TxnVT.Time != 3 {
		t.Fatalf("event = %+v", ev)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("delayed frame arrived after %v, want >= 50ms", elapsed)
	}

	// A zero-delay message never overtakes a delayed one on its link.
	faults.DelayFrames(60 * time.Millisecond)
	if err := a.Send(2, vtime.Zero, msg(4)); err != nil {
		t.Fatal(err)
	}
	faults.DelayFrames(0)
	if err := a.Send(2, vtime.Zero, msg(5)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint64{4, 5} {
		if got := recvOne(t, b, time.Second).Msg.(wire.Outcome).TxnVT.Time; got != want {
			t.Fatalf("got message %d, want %d", got, want)
		}
	}
}
