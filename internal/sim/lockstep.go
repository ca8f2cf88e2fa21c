package sim

import "fmt"

// maxSteps bounds the number of virtual-clock events per run, the
// virtual-time analogue of a watchdog: a retry livelock or a message
// storm that never drains fails loudly instead of hanging the sweep. It
// bounds the member passes after any one event as well.
const maxSteps = 200_000

// member is one participant the lock-step driver steps: an engine site,
// a gvt site, or a centralized server or client, none of which runs a
// goroutine of its own. Step runs the member's queued work on the
// driver's goroutine and reports whether there was any.
type member interface{ Step() bool }

// lockstep drives a virtual clock in lock-step with its members: it
// fires exactly one clock event, then steps every member, in the order
// they were added, until a full pass finds no work, and only then fires
// the next. Everything runs on the caller's goroutine, so a run depends
// on neither goroutine scheduling nor map iteration.
type lockstep struct {
	clock   *Clock
	members []member
	// steps is the number of clock events fired so far (the one firing
	// included).
	steps int
}

// quiesce steps the members until a full pass finds no work. Between
// two clock events that is a fixed point: members only regain work when
// the driver fires the next event.
func (l *lockstep) quiesce() error {
	for pass := 0; pass < maxSteps; pass++ {
		busy := false
		for _, m := range l.members {
			if m.Step() {
				busy = true
			}
		}
		if !busy {
			return nil
		}
	}
	return fmt.Errorf("sim: members still busy after %d passes at step %d (livelock?)", maxSteps, l.steps)
}

// until alternates quiesce and single clock steps until cond holds;
// cond is evaluated only at quiescent points, first before any step.
func (l *lockstep) until(what string, cond func() bool) error {
	for {
		if err := l.quiesce(); err != nil {
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
