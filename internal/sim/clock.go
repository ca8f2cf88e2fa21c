// Package sim is the deterministic simulation harness: a seeded
// virtual-time scheduler over the simulated transport.Network, a
// workload/fault driver, an interleaving explorer, and the paper's §5
// evaluation (E1–E7) in virtual time (paper.go).
//
// The core idea (after "Experiments in Model-Checking Optimistic
// Replication Algorithms", PAPERS.md) is to make a whole multi-site run
// a pure function of one RNG seed. Three ingredients:
//
//   - Clock, below: an event-queue virtual clock. Every deferred action
//     — message delivery, failure notification, failover and repair timers,
//     workload submission, fault injection — is an event on one heap,
//     ordered by (virtual due time, schedule order). Nothing in the
//     system sleeps on a real timer.
//   - Lock-step execution on one goroutine: the harness fires exactly
//     one event, then steps every site (engine sites are never started;
//     see engine.Site.Step) until none has work, and only then fires
//     the next, so sites never race each other and the RNG draw order
//     is fixed.
//   - Deterministic protocol code: engine fan-out iterates site/VT maps
//     in sorted order (see engine's sortedSites/sortedVTs), so the
//     messages a step emits — and hence the whole delivery schedule —
//     depend only on state.
package sim

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is a deterministic virtual-time event queue. It implements both
// transport.Clock (message delivery) and engine.Scheduler (failover,
// repair and offline-grace timers), so one seeded schedule drives the
// entire system.
//
// Virtual time only advances in Step, which pops the earliest scheduled
// event and runs it. Events scheduled for the same instant run in
// schedule order. All methods are safe for concurrent use, but Step is
// meant to be called from a single driver goroutine.
type Clock struct {
	mu   sync.Mutex
	now  time.Duration // guarded by mu
	seq  uint64        // guarded by mu; total events ever scheduled
	live int           // guarded by mu; scheduled minus canceled/run
	heap eventHeap     // guarded by mu
}

type event struct {
	due      time.Duration
	seq      uint64
	fn       func()
	canceled bool
}

// NewClock returns a virtual clock at time zero.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time (an offset from the start of the
// run, not a wall-clock reading).
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc schedules fn to run at Now()+d (d < 0 reads as 0). fn runs
// on the driver goroutine inside Step, never concurrently with another
// scheduled fn. The returned cancel removes the event if it has not run
// yet.
func (c *Clock) AfterFunc(d time.Duration, fn func()) (cancel func()) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	ev := &event{due: c.now + d, seq: c.seq, fn: fn}
	c.seq++
	c.live++
	heap.Push(&c.heap, ev)
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !ev.canceled && ev.fn != nil {
			ev.canceled = true
			ev.fn = nil
			c.live--
		}
	}
}

// At schedules fn to run at virtual time due, like AfterFunc; a due time
// already past reads as Now().
func (c *Clock) At(due time.Duration, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	heap.Push(&c.heap, &event{due: max(due, c.now), seq: c.seq, fn: fn})
	c.seq++
	c.live++
}

// Step pops the earliest scheduled event, advances virtual time to its
// due instant, and runs it. It reports false (without side effects)
// when no events remain.
func (c *Clock) Step() bool {
	for {
		c.mu.Lock()
		if c.heap.Len() == 0 {
			c.mu.Unlock()
			return false
		}
		ev := heap.Pop(&c.heap).(*event)
		if ev.canceled {
			c.mu.Unlock()
			continue
		}
		c.now = ev.due
		fn := ev.fn
		ev.fn = nil
		c.live--
		c.mu.Unlock()
		fn()
		return true
	}
}

// Len reports how many scheduled events are pending (canceled events
// excluded).
func (c *Clock) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// eventHeap is a min-heap ordered by (due, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
