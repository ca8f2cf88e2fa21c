package main

import (
	"bytes"
	"fmt"
	"time"

	"decaf/internal/engine"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wal"
)

// check verifies the program's outputs after a window and returns one
// line per violation. It must be the last use of the cluster: the WAL
// workload stops site 3 to recover it.
func (c *cluster) check(wins ...*window) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if err := c.quiesce(); err != nil {
		fail("%v", err)
	}

	// Replicas agree, and no increment was lost or applied twice.
	read := func(site int, ref engine.ObjRef) int64 {
		v, err := c.site(site).ReadCommitted(ref)
		if err != nil {
			fail("read at site %d: %v", site, err)
			return 0
		}
		return v.(int64)
	}
	var sum int64
	for k := 0; k < c.w.nobj; k++ {
		want := read(1, c.objs[0][k])
		sum += want
		for id := 2; id <= numSites; id++ {
			if got := read(id, c.objs[id-1][k]); got != want {
				fail("object %d: site %d committed %d, site 1 committed %d", k, id, got, want)
			}
		}
	}
	if !c.w.has(opSet) && sum != int64(c.commits) {
		fail("objects sum to %d after %d committed increments", sum, c.commits)
	}

	// Counters balance and nothing was dropped.
	abandoned := make([]uint64, numSites+1)
	for _, win := range wins {
		for _, r := range win.load {
			if !r.ok && !r.timeout {
				abandoned[r.origin]++
			}
		}
	}
	for id := 1; id <= numSites; id++ {
		st := c.site(id).Stats()
		for _, v := range st.IdentityViolations(abandoned[id]) {
			fail("site %d: %s", id, v)
		}
		if st.NotifyDropped != 0 {
			fail("site %d dropped %d view notifications", id, st.NotifyDropped)
		}
		if n, _ := c.site(id).Observer().Metrics().Value("decaf_wal_append_errors_total"); n != 0 {
			fail("site %d: %v WAL append errors", id, n)
		}
	}
	if n := c.transportDrops(); n != 0 {
		fail("transport dropped %d messages", n)
	}

	// Pessimistic views hear committed state in VT order, once per commit
	// on an object they watch (plus the initial notification at attach).
	// Fast-path commits are exempt from the count: the engine folds
	// several into one notification (README, "kept out on purpose").
	for _, v := range c.views {
		if v.mode != engine.Pessimistic {
			continue
		}
		notes := v.taken()
		for i := 1; i < len(notes); i++ {
			if !notes[i-1].ts.Less(notes[i].ts) {
				fail("pessimistic view at site %d: notification %d at %s after %s", v.site, i, notes[i].ts, notes[i-1].ts)
				break
			}
		}
		if !c.w.has(opAdd) && len(notes) != 1+c.viewedCommits {
			fail("pessimistic view at site %d heard %d notifications for %d commits", v.site, len(notes)-1, c.viewedCommits)
		}
	}

	if c.w.wal != walOff {
		if _, err := c.recoverSite3(); err != nil {
			fail("recovery: %v", err)
		}
	}
	return bad
}

// transportDrops counts messages the transport accepted and lost.
func (c *cluster) transportDrops() uint64 {
	var n uint64
	for _, t := range c.tcps {
		st := t.Stats()
		n += st.MessagesDropped + st.SendQueueDrops + st.Abandoned
	}
	if c.taps != nil {
		n += uint64(c.taps.msgs.Load() - c.taps.delivered.Load())
	}
	return n
}

// recoverSite3 stops site 3, recovers a fresh site 3 from the set-up
// checkpoint and the log directory, and requires its committed values
// to equal site 1's. It returns how long Recover took.
func (c *cluster) recoverSite3() (time.Duration, error) {
	const id = 3
	c.site(id).Stop()
	if err := c.logs[id-1].Close(); err != nil {
		return 0, err
	}
	log, err := wal.Open(c.walDir(id), walOptions(c.w.wal))
	if err != nil {
		return 0, err
	}
	defer log.Close()
	net := transport.NewNetwork(transport.Config{})
	defer net.Close()
	ep, err := net.Endpoint(vtime.SiteID(id))
	if err != nil {
		return 0, err
	}
	s := engine.NewSite(ep, engine.Options{WAL: log})
	s.Start()
	defer s.Stop()
	start := time.Now()
	if err := s.Recover(bytes.NewReader(c.checkpoint)); err != nil {
		return 0, err
	}
	took := time.Since(start)
	for k, old := range c.objs[id-1] {
		ref, ok := s.Object(old.ID())
		if !ok {
			return took, fmt.Errorf("recovered site lost object %d", k)
		}
		got, err := s.ReadCommitted(ref)
		if err != nil {
			return took, err
		}
		want, err := c.site(1).ReadCommitted(c.objs[0][k])
		if err != nil {
			return took, err
		}
		if got != want {
			return took, fmt.Errorf("object %d: recovered %v, site 1 has %v", k, got, want)
		}
	}
	return took, nil
}
