package sim

import (
	"fmt"
	"runtime"
	"time"
)

// settleTimeout bounds (in wall-clock time) how long the driver waits
// for every member to quiesce between virtual-clock steps. A run that
// trips it is stuck — a deadlock or an event loop spinning without
// scheduling clock work — and fails with the current step for replay.
const settleTimeout = 10 * time.Second

// maxSteps bounds the number of virtual-clock events per run, the
// virtual-time analogue of a watchdog: a retry livelock or a message
// storm that never drains fails loudly instead of hanging the sweep.
const maxSteps = 200_000

// member is one participant the lock-step driver waits on: an engine
// site, a gvt site, or a centralized server or client.
type member interface{ Quiescent() bool }

// lockstep drives a virtual clock in lock-step with its members: it
// fires exactly one clock event, waits until every member is
// Quiescent(), then fires the next. Members are polled in the order
// they were added, so a run never depends on map iteration.
type lockstep struct {
	clock   *Clock
	members []member
	// steps is the number of clock events fired so far (the one firing
	// included).
	steps int
}

// settle waits (in wall-clock time) until every member's event loop is
// parked over empty queues with no work pending. Between two clock
// events this always terminates: members only regain work when the
// driver fires the next event.
func (l *lockstep) settle() error {
	// The watchdog deadline is a liveness check on the host, not
	// simulation state: it only decides when a wedged run is declared
	// dead, never what a live run computes.
	deadline := time.Now().Add(settleTimeout) //decaf:ignore wallclock liveness watchdog; never feeds simulation state
	for {
		quiet := true
		for _, m := range l.members {
			if !m.Quiescent() {
				quiet = false
				break
			}
		}
		if quiet {
			return nil
		}
		if time.Now().After(deadline) { //decaf:ignore wallclock liveness watchdog; never feeds simulation state
			return fmt.Errorf("sim: members never quiesced at step %d (wedged event loop?)", l.steps)
		}
		runtime.Gosched()
	}
}

// until alternates settle and single clock steps until cond holds; cond
// is evaluated only at quiescent points, first before any step.
func (l *lockstep) until(what string, cond func() bool) error {
	for {
		if err := l.settle(); err != nil {
			return err
		}
		if cond() {
			return nil
		}
		// Counted before the event fires, so the traces it writes carry
		// its own step number.
		l.steps++
		if !l.clock.Step() {
			l.steps--
			return fmt.Errorf("sim: clock drained before %s (step %d)", what, l.steps)
		}
		if l.steps > maxSteps {
			return fmt.Errorf("sim: step budget exceeded waiting for %s (livelock?)", what)
		}
	}
}

// drain runs the schedule to exhaustion: until the clock is empty and
// every member is quiescent.
func (l *lockstep) drain() error {
	return l.until("drain", func() bool { return l.clock.Len() == 0 })
}
