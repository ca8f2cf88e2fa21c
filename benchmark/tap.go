package main

import (
	"sync"
	"sync/atomic"
	"time"

	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wire"
)

// tapNet measures the transport layer from outside in a traced run: each
// site's endpoint is wrapped in a tapEndpoint that stamps every message
// when the engine hands it over and again when the transport delivers
// it. Both transports are FIFO per ordered site pair and lossless here,
// so the k-th delivery of a pair is the k-th send.
type tapNet struct {
	epoch time.Time

	mu    sync.Mutex
	links map[[2]vtime.SiteID]*tapLink // guarded by mu

	calls     atomic.Int64 // Send + SendBatch calls
	msgs      atomic.Int64 // messages handed to the transport
	delivered atomic.Int64 // message events the transport delivered
	sendNs    atomic.Int64 // time spent inside Send/SendBatch

	sampleMu sync.Mutex
	sample   []wire.Message // guarded by sampleMu; every sampleStride-th message
	stop     chan struct{}
	wg       sync.WaitGroup
}

const (
	sampleStride = 16
	sampleCap    = 4096
)

// tapLink is one ordered site pair.
type tapLink struct {
	mu      sync.Mutex
	sent    []time.Duration // guarded by mu; send stamp of the k-th message
	next    int             // guarded by mu; deliveries matched so far
	transit []time.Duration // guarded by mu
}

func newTapNet(epoch time.Time) *tapNet {
	return &tapNet{epoch: epoch, links: map[[2]vtime.SiteID]*tapLink{}, stop: make(chan struct{})}
}

func (n *tapNet) link(from, to vtime.SiteID) *tapLink {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.links[[2]vtime.SiteID{from, to}]
	if l == nil {
		l = &tapLink{}
		n.links[[2]vtime.SiteID{from, to}] = l
	}
	return l
}

// transits returns every matched send-to-delivery time so far.
func (n *tapNet) transits() []time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []time.Duration
	for _, l := range n.links {
		l.mu.Lock()
		out = append(out, l.transit...)
		l.mu.Unlock()
	}
	return out
}

func (n *tapNet) sampled() []wire.Message {
	n.sampleMu.Lock()
	defer n.sampleMu.Unlock()
	return append([]wire.Message(nil), n.sample...)
}

// close stops the forwarding goroutines; call it once the sites have
// stopped.
func (n *tapNet) close() {
	close(n.stop)
	n.wg.Wait()
}

// wrap returns ep with the tap around it and starts forwarding its
// events.
func (n *tapNet) wrap(ep transport.Endpoint) transport.Endpoint {
	t := &tapEndpoint{Endpoint: ep, net: n, events: make(chan transport.Event, cap(ep.Events()))}
	n.wg.Add(1)
	go t.forward()
	return t
}

// tapEndpoint implements transport.Endpoint and transport.BatchSender
// around another endpoint.
type tapEndpoint struct {
	transport.Endpoint
	net    *tapNet
	events chan transport.Event
}

var _ transport.BatchSender = (*tapEndpoint)(nil)

func (t *tapEndpoint) Events() <-chan transport.Event { return t.events }

func (t *tapEndpoint) Send(to vtime.SiteID, sentAt vtime.VT, msg wire.Message) error {
	return t.SendBatch(to, sentAt, []wire.Message{msg})
}

func (t *tapEndpoint) SendBatch(to vtime.SiteID, sentAt vtime.VT, msgs []wire.Message) error {
	n := t.net
	first := n.msgs.Add(int64(len(msgs))) - int64(len(msgs))
	n.calls.Add(1)
	for i, m := range msgs {
		if (first+int64(i))%sampleStride == 0 {
			n.sampleMu.Lock()
			if len(n.sample) < sampleCap {
				n.sample = append(n.sample, m)
			}
			n.sampleMu.Unlock()
		}
	}
	l := n.link(t.Site(), to)
	start := time.Since(n.epoch)
	l.mu.Lock()
	for range msgs {
		l.sent = append(l.sent, start)
	}
	l.mu.Unlock()

	var err error
	if b, ok := t.Endpoint.(transport.BatchSender); ok {
		err = b.SendBatch(to, sentAt, msgs)
	} else {
		for _, m := range msgs {
			if e := t.Endpoint.Send(to, sentAt, m); e != nil {
				err = e
			}
		}
	}
	n.sendNs.Add(int64(time.Since(n.epoch) - start))
	return err
}

// forward stamps each delivered message and passes every event on.
func (t *tapEndpoint) forward() {
	defer t.net.wg.Done()
	defer close(t.events)
	for {
		var ev transport.Event
		var ok bool
		select {
		case ev, ok = <-t.Endpoint.Events():
			if !ok {
				return
			}
		case <-t.net.stop:
			return
		}
		if ev.Kind == transport.EventMessage {
			at := time.Since(t.net.epoch)
			t.net.delivered.Add(1)
			l := t.net.link(ev.From, t.Site())
			l.mu.Lock()
			if l.next < len(l.sent) {
				l.transit = append(l.transit, at-l.sent[l.next])
				l.next++
			}
			l.mu.Unlock()
		}
		select {
		case t.events <- ev:
		case <-t.net.stop:
			return
		}
	}
}
