package sim

import "time"

// Mix weights the transaction kinds a workload draws from. Weights are
// relative; a zero weight disables the kind.
type Mix struct {
	// Write is a read-modify-write of one shared register all sites
	// contend on — the guessed (RL) path, conflict-heavy by design.
	Write int
	// Add is a blind increment of a shared counter — the commutative
	// fast path when enabled, an ordinary guess when disabled.
	Add int
	// List appends to a shared list — the composite path (child
	// creation, stable-position ops, structural merge on commit).
	List int
	// Abort reads the register then aborts programmatically —
	// exercises the programmed-abort bookkeeping and rollback.
	Abort int
}

func (m Mix) total() int { return m.Write + m.Add + m.List + m.Abort }

// Profile is one simulated scenario: topology, timing distribution,
// fault plan, and workload shape. Run(profile, seed) is a pure function
// of (Profile, seed) — same inputs, byte-identical event trace.
type Profile struct {
	Name string

	// Sites is the number of engine sites (IDs 1..Sites). Site 1
	// creates every shared object, so it is each object's initial
	// primary.
	Sites int

	// Latency and Jitter parameterize the per-message delay draw;
	// Duplicate re-delivers each message with this probability after
	// one extra latency draw (out of band, past newer messages).
	Latency   time.Duration
	Jitter    time.Duration
	Duplicate float64

	// MaxRetries bounds the engine's conflict-retry loop (0 means
	// engine.DefaultMaxRetries).
	MaxRetries int

	// Ops transactions are drawn from Mix and scheduled at uniform
	// random virtual times in [0, Span) after setup.
	Ops  int
	Span time.Duration
	Mix  Mix

	// Crash kills one seed-chosen site (possibly the primary, which
	// forces the §3.4 survivor consensus repair) midway through the
	// schedule. Flap injects a latency spike window (DelayFrames on,
	// then off) — the in-memory transport has no retransmit layer, so
	// a hard partition would wedge the protocol rather than test it;
	// a flap reorders aggressively without losing messages.
	Crash bool
	Flap  bool

	// DisableFastPath routes commutative transactions through the
	// ordinary guess/confirm protocol.
	DisableFastPath bool

	// Cascade (needs 3+ sites, meant for 5) kills site 1 — every
	// object's initial primary — midway through the schedule, then
	// kills site 2, the lowest-ranked survivor that every peer expects
	// to coordinate the repair, a couple of latency draws later.
	// Exercises the consensus takeover (a higher ballot from the next
	// survivor) and the cascaded repair of the second failure
	// (DESIGN.md §14).
	Cascade bool

	// Offline takes one seed-chosen non-primary site weakly connected
	// midway through the schedule: a silent partition from every peer
	// plus a failure-detector false positive (Suspect), with the
	// suspicion policy pre-warned via SetPeerDisconnected so the report
	// parks instead of running §3.4 failover. The site reconnects at
	// 3/4 span and anti-entropy syncs (DESIGN.md §13). Every site gets
	// its own WAL; the run must converge with zero failovers run.
	Offline bool

	// Views attaches, once set-up has drained, a pessimistic and an
	// optimistic view over all three shared objects at every site, and
	// checks the paper's §4 view contracts at quiescence (views.go).
	// Notifications are recorded outside the replay trace.
	Views bool
}

// withDefaults fills zero fields with workable values.
func (p Profile) withDefaults() Profile {
	if p.Sites == 0 {
		p.Sites = 3
	}
	if p.Latency == 0 {
		p.Latency = 5 * time.Millisecond
	}
	if p.Ops == 0 {
		p.Ops = 24
	}
	if p.Span == 0 {
		p.Span = 40 * p.Latency
	}
	if p.Mix.total() == 0 {
		p.Mix = Mix{Write: 3, Add: 3, List: 2, Abort: 1}
	}
	return p
}

// Profiles returns the standard exploration set: each profile stresses
// a different protocol surface, and together they cover the guessed,
// fast-path, and composite paths under reordering, duplication, latency
// flaps, and fail-stop crashes.
func Profiles() []Profile {
	return []Profile{
		{
			// Baseline: mixed workload, jittered delivery, no faults.
			Name: "smoke", Sites: 3,
			Latency: 5 * time.Millisecond, Jitter: 4 * time.Millisecond,
			Ops: 24,
		},
		{
			// High contention on one register: guess/confirm conflicts,
			// retries, and retry-budget exhaustion.
			Name: "contend", Sites: 4,
			Latency: 5 * time.Millisecond, Jitter: 5 * time.Millisecond,
			MaxRetries: 6,
			Ops:        32, Mix: Mix{Write: 6, Add: 1, List: 1},
		},
		{
			// Full fault menu over the mixed workload: crash one site
			// (repair), latency flap (reordering), duplicates.
			Name: "faulty", Sites: 4,
			Latency: 5 * time.Millisecond, Jitter: 5 * time.Millisecond,
			Duplicate: 0.08,
			Ops:       28, Crash: true, Flap: true,
		},
		{
			// Commutative fast path under faults: mostly adds and list
			// appends, so FastWrite folding races GC merge-bases and
			// demotion races in-flight confirms.
			Name: "fastpath-faulty", Sites: 3,
			Latency: 4 * time.Millisecond, Jitter: 6 * time.Millisecond,
			Duplicate: 0.10,
			Ops:       30, Mix: Mix{Write: 1, Add: 5, List: 3},
			Crash: true, Flap: true,
		},
		{
			// Weakly connected operation (§13): one site goes silent
			// mid-run — partitioned and suspected, but not crashed —
			// then reconnects and anti-entropy syncs from its peers'
			// WALs. Failover must park for the whole outage, never run.
			Name: "offline", Sites: 3,
			Latency: 5 * time.Millisecond, Jitter: 4 * time.Millisecond,
			Ops: 24, Offline: true,
		},
		{
			// Cascading failure: the primary dies mid-schedule, then the
			// repair coordinator dies while that repair is in flight (or
			// freshly decided — the gap is a seeded draw). A survivor
			// must take over the ballot, settle the orphans, and
			// cascade-repair the second failure (DESIGN.md §14).
			Name: "cascade", Sites: 5,
			Latency: 5 * time.Millisecond, Jitter: 4 * time.Millisecond,
			Duplicate: 0.05,
			Ops:       28, Cascade: true,
		},
		{
			// Same fault menu with the fast path ablated: every
			// commutative op takes the guess/confirm protocol.
			Name: "nofast", Sites: 3,
			Latency: 4 * time.Millisecond, Jitter: 6 * time.Millisecond,
			Duplicate: 0.06,
			Ops:       24, Crash: true, Flap: true,
			DisableFastPath: true,
		},
		{
			// View contracts (paper §4): every site watches every shared
			// object through a pessimistic and an optimistic view while
			// the mixed workload runs under jitter, duplicates and a
			// latency flap, so commits reach each viewer out of VT order
			// and several land in one event-loop batch. The fast path is
			// off because of a known open bug outside the view protocol
			// that the exactly-once check would report:
			// no primary orders a fast-path commit against a pessimistic
			// snapshot's RL check, so one can reach a viewer below its
			// notification watermark, unheard.
			Name: "views", Sites: 3,
			Latency: 5 * time.Millisecond, Jitter: 5 * time.Millisecond,
			Duplicate: 0.05,
			Ops:       30, Flap: true, Views: true,
			DisableFastPath: true,
		},
	}
}

// ProfileByName returns the standard profile with the given name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
