package transport

import (
	"sync"

	"decaf/internal/obs"
)

// inbox is an endpoint's receiving side, shared by both transports: the
// Events channel and, behind it, an unbounded in-order backlog. Nothing
// delivered is dropped until the inbox closes. Events that find the
// channel full wait in the backlog, and a pump goroutine exists exactly
// while the backlog is non-empty.
type inbox struct {
	events chan Event
	stop   chan struct{} // closed by close: a pump blocked on events returns

	mu       sync.Mutex
	closed   bool          // guarded by mu
	accepted uint64        // guarded by mu; events deliver has accepted
	backlog  []Event       // guarded by mu; events that found events full, oldest first
	pumping  chan struct{} // guarded by mu; non-nil while a pump drains backlog, closed when it exits
}

func newInbox(size int) *inbox {
	return &inbox{events: make(chan Event, size), stop: make(chan struct{})}
}

// deliver accepts ev: onto the Events channel when it has room and no
// older event is waiting, into the backlog otherwise. It never blocks.
func (in *inbox) deliver(ev Event) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return
	}
	in.accepted++
	if len(in.backlog) == 0 {
		select {
		case in.events <- ev:
			return
		default:
		}
	}
	in.backlog = append(in.backlog, ev)
	if in.pumping == nil {
		in.pumping = make(chan struct{})
		go in.pump(in.pumping)
	}
}

// pump moves the backlog onto the Events channel in order. The head
// leaves the backlog only once sent, so deliver cannot overtake it.
func (in *inbox) pump(done chan struct{}) {
	defer close(done)
	sent := false
	for {
		in.mu.Lock()
		if in.closed {
			in.mu.Unlock()
			return
		}
		if sent {
			in.backlog[0] = Event{}
			in.backlog = in.backlog[1:]
		}
		if len(in.backlog) == 0 {
			in.backlog = nil
			in.pumping = nil
			in.mu.Unlock()
			return
		}
		ev := in.backlog[0]
		in.mu.Unlock()
		select {
		case in.events <- ev:
			sent = true
		case <-in.stop:
			return
		}
	}
}

// observe exports the backlog's depth on reg.
func (in *inbox) observe(reg *obs.Registry) {
	reg.GaugeFunc("decaf_transport_inbound_backlog", "inbound events waiting for room in the endpoint's event channel", in.backlogLen)
}

func (in *inbox) backlogLen() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return float64(len(in.backlog))
}

// acceptedCount counts the events deliver has accepted: on the Events
// channel, in the backlog, or already received.
func (in *inbox) acceptedCount() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.accepted
}

// close stops the pump, discards the backlog and closes the Events
// channel, once.
func (in *inbox) close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	in.backlog = nil
	pumping := in.pumping
	in.mu.Unlock()
	close(in.stop)
	if pumping != nil {
		<-pumping
	}
	close(in.events)
}
