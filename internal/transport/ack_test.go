package transport

import (
	"testing"
	"time"

	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// peerOf returns t's sender record for site (nil before first contact).
func peerOf(t *TCP, site vtime.SiteID) *tcpPeer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[site]
}

// unacked is how many envelopes t has sent to site without hearing an
// ack for them (0 before first contact).
func unacked(t *TCP, site vtime.SiteID) uint64 {
	p := peerOf(t, site)
	if p == nil {
		return 0
	}
	last, acked := p.lastSeq.Load(), p.ackedSeq.Load()
	if last < acked {
		return 0
	}
	return last - acked
}

// waitAcked waits until t holds nothing unacknowledged for site and
// reports how long that took.
func waitAcked(t *testing.T, ep *TCP, site vtime.SiteID, timeout time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for unacked(ep, site) > 0 {
		if time.Since(start) > timeout {
			t.Fatalf("site %s still owes acks for %d envelopes after %v", site, unacked(ep, site), timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

// checkFlushIdentity checks that every flush carried a frame: flushes
// <= data frames + standalone acks + hellos. The endpoint
// must have sent sent envelopes to one peer; a data frame holds at least
// one envelope (again after a reconnect), and every connection opens
// with one hello.
func checkFlushIdentity(t *testing.T, name string, st TCPStats, sent uint64) {
	t.Helper()
	frames := sent + st.Retransmits + st.AckFrames + 1 + st.Reconnects
	if st.Flushes > frames {
		t.Errorf("%s: %d flushes for at most %d frames (%d envelopes, stats %+v)", name, st.Flushes, frames, sent, st)
	}
}

// TestAckRidesDataPingPong pins the hot path: with traffic both ways the
// ack travels in front of the next data frame, so a message costs one
// flush and next to no ack frames of its own.
func TestAckRidesDataPingPong(t *testing.T) {
	a, b := tcpPair(t, TCPOptions{}, TCPOptions{})

	const rounds = 1000
	for i := uint64(0); i < rounds; i++ {
		if err := b.Send(1, vtime.Zero, msg(i)); err != nil {
			t.Fatal(err)
		}
		if ev := recvOne(t, a, 2*time.Second); ev.Msg.(wire.Outcome).TxnVT.Time != i {
			t.Fatalf("ping %d arrived as %+v", i, ev)
		}
		if err := a.Send(2, vtime.Zero, msg(i)); err != nil {
			t.Fatal(err)
		}
		if ev := recvOne(t, b, 2*time.Second); ev.Msg.(wire.Outcome).TxnVT.Time != i {
			t.Fatalf("pong %d arrived as %+v", i, ev)
		}
	}

	for name, st := range map[string]TCPStats{"a": a.Stats(), "b": b.Stats()} {
		// One data frame per message: each waits for the one before it.
		if max := uint64(rounds * 0.05); st.AckFrames > max {
			t.Errorf("%s sent %d standalone ack frames for %d data frames, want <= %d", name, st.AckFrames, rounds, max)
		}
		if max := uint64(rounds * 1.1); st.Flushes > max {
			t.Errorf("%s flushed %d times for %d messages, want <= %d", name, st.Flushes, rounds, max)
		}
		if st.Reconnects != 0 || st.Retransmits != 0 {
			t.Errorf("%s: healthy link disturbed: %+v", name, st)
		}
		checkFlushIdentity(t, name, st, rounds)
	}
}

// TestAckOneWayFlowDrains pins the other end of the policy: with nothing
// to ride on, acks still go out — every RetainLimit/4 envelopes, so the
// sender's window never stays full, and on the ack timer for the tail.
func TestAckOneWayFlowDrains(t *testing.T) {
	const (
		retain     = 64
		count      = 4*retain + 3 // the +3 leaves a tail below the debt threshold
		ackTimeout = 2 * time.Second
	)
	opts := TCPOptions{RetainLimit: retain, MaxBatch: retain / 4, AckTimeout: ackTimeout}
	a, b := tcpPair(t, opts, opts)
	ackDelay := opts.withDefaults().ackDelay()

	start := time.Now()
	for i := uint64(0); i < count; i++ {
		if err := b.Send(1, vtime.Zero, msg(i)); err != nil {
			t.Fatal(err)
		}
	}
	lastSend := time.Now()
	for i := uint64(0); i < count; i++ {
		if ev := recvOne(t, a, 2*time.Second); ev.Msg.(wire.Outcome).TxnVT.Time != i {
			t.Fatalf("message %d arrived as %+v", i, ev)
		}
	}
	// Acks on the timer alone would hold the flow for one ack delay per
	// window after the first.
	if took := time.Since(start); took > 2*ackDelay {
		t.Errorf("%d messages through a window of %d took %v: acks waited for the timer (ack delay %v)", count, retain, took, ackDelay)
	}
	waitAcked(t, b, 1, ackTimeout)
	if drained := time.Since(lastSend); drained > ackTimeout/4 {
		t.Errorf("window drained %v after the last send, want <= %v", drained, ackTimeout/4)
	}

	sa, sb := a.Stats(), b.Stats()
	if sb.Reconnects != 0 || sb.Retransmits != 0 || sb.Abandoned != 0 || sb.Unencodable != 0 || sb.FailureEvents != 0 {
		t.Errorf("sender: a one-way flow disturbed the link: %+v", sb)
	}
	if sa.AckFrames == 0 {
		t.Errorf("receiver sent no standalone ack: %+v", sa)
	}
	checkFlushIdentity(t, "sender", sb, count)
	checkFlushIdentity(t, "receiver", sa, 0)
}

// TestAckSilentDeathRetransmitsUnackedTail loses a flushed frame with no
// error on either side (the injected drop). The stale check must notice
// within two periods, and the reconnect must resend the lost envelope
// and none of the acknowledged ones.
func TestAckSilentDeathRetransmitsUnackedTail(t *testing.T) {
	const ackTimeout = 240 * time.Millisecond
	faults := NewFaults()
	a, b := tcpPair(t, TCPOptions{AckTimeout: ackTimeout}, TCPOptions{AckTimeout: ackTimeout, Faults: faults})

	const acked = 5
	for i := uint64(0); i < acked; i++ {
		if err := b.Send(1, vtime.Zero, msg(i)); err != nil {
			t.Fatal(err)
		}
		recvOne(t, a, 2*time.Second)
	}
	waitAcked(t, b, 1, ackTimeout) // the ack timer, not a reconnect, clears these

	faults.DropFrames(1, 1)
	sent := time.Now()
	if err := b.Send(1, vtime.Zero, msg(acked)); err != nil {
		t.Fatal(err)
	}
	ev := recvOne(t, a, 2*ackTimeout+time.Second)
	took := time.Since(sent)
	if ev.Kind != EventMessage || ev.Msg.(wire.Outcome).TxnVT.Time != acked {
		t.Fatalf("event = %+v, want the retransmitted message", ev)
	}
	if faults.Dropped() != 1 {
		t.Fatalf("dropped %d frames, want 1", faults.Dropped())
	}
	// Nothing but the stale check can have noticed, and it takes at least
	// what is left of the running period.
	if slack := 150 * time.Millisecond; took > 2*ackTimeout+slack {
		t.Errorf("lost frame redelivered after %v, want within 2 x AckTimeout = %v", took, 2*ackTimeout)
	}
	st := b.Stats()
	if st.Reconnects != 1 || st.Retransmits != 1 {
		t.Errorf("stats = %+v, want exactly one reconnect retransmitting the one unacked envelope", st)
	}
	if st.FailureEvents != 0 {
		t.Errorf("silent loss escalated to failure: %+v", st)
	}
	waitAcked(t, b, 1, ackTimeout)
}

// TestAckNewIncarnationAckedAtOnce: first contact with a new peer
// incarnation (and with it every new connection) is answered with an ack
// frame at once, not after the ack delay: a restarted peer learns where
// it stands, and an ack that died with the old connection is replaced.
func TestAckNewIncarnationAckedAtOnce(t *testing.T) {
	const ackTimeout = 2 * time.Second // ack delay 250ms: far beyond "at once"
	opts := TCPOptions{AckTimeout: ackTimeout}
	a, err := ListenTCPOptions(1, "127.0.0.1:0", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addr := map[vtime.SiteID]string{1: a.Addr().String()}

	b, err := ListenTCPOptions(2, "127.0.0.1:0", addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(1, vtime.Zero, msg(1)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a, 2*time.Second)
	waitAcked(t, b, 1, ackTimeout) // a owes the old incarnation nothing more
	b.Close()
	before := a.Stats().AckFrames

	// Site 2 restarts: a fresh endpoint, so a fresh incarnation.
	b2, err := ListenTCPOptions(2, "127.0.0.1:0", addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := b2.Send(1, vtime.Zero, msg(2)); err != nil {
		t.Fatal(err)
	}
	if ev := recvOne(t, a, 2*time.Second); ev.Kind != EventMessage || ev.Msg.(wire.Outcome).TxnVT.Time != 2 {
		t.Fatalf("event = %+v, want the restarted peer's message", ev)
	}
	// Generous for a loaded machine, still well inside the ack delay.
	start := time.Now()
	for a.Stats().AckFrames == before {
		if time.Since(start) > opts.ackDelay()/2 {
			t.Fatalf("no ack frame %v after a new incarnation's first message (ack delay %v)", time.Since(start), opts.ackDelay())
		}
		time.Sleep(time.Millisecond)
	}
	waitAcked(t, b2, 1, ackTimeout)
}

func TestAckPeriodTimer(t *testing.T) {
	var pt periodTimer
	if pt.C() != nil {
		t.Fatal("C before the first arm must be nil (never ready in a select)")
	}
	pt.arm(10 * time.Millisecond)
	pt.arm(time.Hour) // ignored: a period is running
	select {
	case <-pt.C():
		pt.fired()
	case <-time.After(2 * time.Second):
		t.Fatal("second arm replaced the running period")
	}
	if pt.armed.Load() {
		t.Fatal("armed after fired")
	}
	// A period that ended unobserved must not leak its tick into the next.
	pt.arm(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	pt.disarm()
	pt.arm(time.Hour)
	select {
	case <-pt.C():
		t.Fatal("stale tick from a disarmed period")
	case <-time.After(20 * time.Millisecond):
	}
	pt.disarm()
}
