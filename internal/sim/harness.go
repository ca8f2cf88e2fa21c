package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"decaf/internal/detorder"
	"decaf/internal/engine"
	"decaf/internal/transport"
	"decaf/internal/vtime"
	"decaf/internal/wal"
	"decaf/internal/wire"
)

// Result is the outcome of one simulated run.
type Result struct {
	Profile string
	Seed    int64
	// Steps is the number of virtual-clock events fired.
	Steps int
	// Killed lists the crashed sites in kill order (empty when the
	// profile has no crash; cascade profiles kill two).
	Killed []vtime.SiteID
	// Trace is the full event schedule: one line per delivery attempt,
	// submit, and fault transition. Byte-identical across runs of the
	// same (profile, seed) — TestSimReplay pins that.
	Trace string
	// Fingerprint summarizes the final committed state of every shared
	// object at the surviving sites, plus the step count. Also
	// byte-identical across replays.
	Fingerprint string
	// Err is non-nil when any invariant failed: non-convergence,
	// counter-identity violation, undecided transaction, stuck run.
	Err error
	// Stats is each site's final counter snapshot (diagnostics; not
	// part of the replay fingerprint).
	Stats map[vtime.SiteID]engine.Stats
}

// opKind is one workload transaction flavor.
type opKind int

const (
	opWrite opKind = iota
	opAdd
	opList
	opAbort
)

func (k opKind) String() string {
	switch k {
	case opWrite:
		return "write"
	case opAdd:
		return "add"
	case opList:
		return "list"
	default:
		return "abort"
	}
}

// errProgrammedAbort is the workload's deliberate user abort.
var errProgrammedAbort = errors.New("sim: programmed abort")

// pendingTxn latches a submitted transaction's result so the harness
// can poll completion without consuming the handle's one-shot channel
// twice.
type pendingTxn struct {
	site vtime.SiteID
	kind opKind
	h    *engine.Handle
	res  engine.Result
	done bool
}

func (p *pendingTxn) poll() bool {
	if p.done {
		return true
	}
	select {
	case r := <-p.h.Done():
		p.res, p.done = r, true
		return true
	default:
		return false
	}
}

// world is one simulated universe: a virtual clock, a network driven
// entirely by clock events, and one engine site per member. All of it
// runs in lock-step on one goroutine — the harness fires exactly one
// clock event, steps every site until none has work, then fires the
// next — so the whole run is a deterministic function of (profile,
// seed).
type world struct {
	lockstep
	profile Profile
	seed    int64
	net     *transport.Network
	faults  *transport.Faults
	sites   map[vtime.SiteID]*engine.Site
	rng     *rand.Rand

	trace   strings.Builder
	killed  []vtime.SiteID
	offline vtime.SiteID
	pending []*pendingTxn
	// views holds each site's view notifications (Views profiles only).
	views map[vtime.SiteID]*viewLog
}

// Run executes one simulated run and checks every invariant. It is safe
// to call concurrently with other Runs (each world is self-contained),
// but a single run is internally sequential by design.
//
// An optional inspect hook runs after the schedule drains but before
// shutdown, with the live sites and the per-site refs of each shared
// object ("reg", "ctr", "lst") — debug tooling dumps version histories
// through it.
func Run(p Profile, seed int64, inspect ...func(sites map[vtime.SiteID]*engine.Site, refs map[string][]engine.ObjRef)) (res Result) {
	p = p.withDefaults()
	w := &world{
		lockstep: lockstep{clock: NewClock()},
		profile:  p,
		seed:     seed,
		faults:   transport.NewFaults(),
		sites:    map[vtime.SiteID]*engine.Site{},
		// Decorrelate the workload stream from the network's jitter
		// stream (which NewNetwork seeds with the raw seed).
		rng: rand.New(rand.NewSource(seed ^ 0x5bf03635)),
	}
	res = Result{Profile: p.Name, Seed: seed}
	// Named return: the deferred capture below must mutate the value
	// the caller sees, even on early-error returns.
	defer func() {
		res.Steps = w.steps
		res.Killed = w.killed
		res.Trace = w.trace.String()
	}()

	w.net = transport.NewNetwork(transport.Config{
		Latency: p.Latency,
		Jitter:  p.Jitter,
		Seed:    seed,
		// Every site is stepped empty after each clock event, and one
		// event hands a site at most a few others, so a small channel
		// suffices: allocating the default 4096 slots per endpoint was
		// 5% of a sweep's CPU. An overflow waits, in order, in the inbox
		// backlog.
		QueueSize: 64,
		Faults:    w.faults,
		Clock:     w.clock,
		Duplicate: p.Duplicate,
		OnDeliver: w.traceDeliver,
	})
	defer w.net.Close()

	// Offline runs give every site a WAL (anti-entropy ships from it)
	// on scratch disk. SyncNever: the simulation studies interleavings,
	// not fsync cost, and nothing crashes mid-run. File contents are a
	// pure function of the deterministic schedule; paths never enter
	// the trace.
	var logs []*wal.Log
	defer func() {
		for _, l := range logs {
			l.Close()
		}
	}()
	for i := 1; i <= p.Sites; i++ {
		id := vtime.SiteID(i)
		ep, err := w.net.Endpoint(id)
		if err != nil {
			res.Err = fmt.Errorf("sim: endpoint %d: %w", i, err)
			return res
		}
		opts := engine.Options{
			Scheduler:       w.clock,
			MaxRetries:      p.MaxRetries,
			DisableFastPath: p.DisableFastPath,
		}
		if p.Offline {
			dir, err := os.MkdirTemp("", "decaf-sim-wal-")
			if err != nil {
				res.Err = fmt.Errorf("sim: wal dir for S%d: %w", i, err)
				return res
			}
			defer os.RemoveAll(dir)
			l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
			if err != nil {
				res.Err = fmt.Errorf("sim: wal for S%d: %w", i, err)
				return res
			}
			logs = append(logs, l)
			opts.WAL = l
			// Longer than the outage (span/4 .. 3span/4), so the parked
			// failover is released by the recovery report, exercising
			// the cancel path — not by the grace deadline.
			opts.OfflineGrace = p.Span
		}
		s := engine.NewSite(ep, opts)
		w.sites[id] = s
		w.members = append(w.members, s)
	}
	defer func() {
		// ID-sorted so shutdown (which can surface latent races and
		// panics) replays like everything else.
		for _, id := range detorder.Sorted(w.sites) {
			w.sites[id].Stop()
		}
	}()

	refs, err := w.setup()
	if err != nil {
		res.Err = err
		return res
	}
	if p.Views {
		if err := w.attachViews(refs); err != nil {
			res.Err = err
			return res
		}
	}

	w.scheduleWorkload(refs)
	w.scheduleFaults()

	if err := w.drain(); err != nil {
		res.Err = err
		return res
	}

	res.Err = w.check(refs)
	res.Fingerprint = w.fingerprint(refs)
	res.Stats = map[vtime.SiteID]engine.Stats{}
	for id, s := range w.sites {
		res.Stats[id] = s.Stats()
	}
	for _, fn := range inspect {
		fn(w.sites, refs)
	}
	return res
}

// traceDeliver records one line per network delivery attempt. It runs
// on the goroutine firing clock events — the harness goroutine — so no
// locking is needed.
func (w *world) traceDeliver(to vtime.SiteID, ev transport.Event) {
	switch ev.Kind {
	case transport.EventMessage:
		fmt.Fprintf(&w.trace, "%5d %9s S%d->S%d %s sent=%s\n",
			w.steps, w.clock.Now(), ev.From, to, msgName(ev.Msg), ev.SentAt)
	case transport.EventSiteFailed:
		fmt.Fprintf(&w.trace, "%5d %9s ->S%d SITE-FAILED S%d\n",
			w.steps, w.clock.Now(), to, ev.Failed)
	case transport.EventSiteRecovered:
		fmt.Fprintf(&w.trace, "%5d %9s ->S%d SITE-RECOVERED S%d\n",
			w.steps, w.clock.Now(), to, ev.Failed)
	default:
		fmt.Fprintf(&w.trace, "%5d %9s ->S%d event=%d\n",
			w.steps, w.clock.Now(), to, ev.Kind)
	}
}

func (w *world) tracef(format string, args ...any) {
	fmt.Fprintf(&w.trace, "%5d %9s %s\n",
		w.steps, w.clock.Now(), fmt.Sprintf(format, args...))
}

func msgName(m wire.Message) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", m), "wire.")
}

// setup creates the three shared objects at site 1 and joins every
// other site into their replica relationships, driving the clock until
// the replication graphs converge everywhere. The setup traffic is part
// of the deterministic trace.
func (w *world) setup() (map[string][]engine.ObjRef, error) {
	refs := map[string][]engine.ObjRef{}
	for _, obj := range []struct {
		name    string
		kind    engine.Kind
		initial any
	}{
		{"reg", engine.KindInt, int64(0)},
		{"ctr", engine.KindInt, int64(0)},
		{"lst", engine.KindList, nil},
	} {
		bysite := make([]engine.ObjRef, w.profile.Sites+1)
		first, err := w.sites[1].CreateObject(obj.kind, obj.name, obj.initial)
		if err != nil {
			return nil, fmt.Errorf("sim: create %s: %w", obj.name, err)
		}
		bysite[1] = first
		for i := 2; i <= w.profile.Sites; i++ {
			id := vtime.SiteID(i)
			r, err := w.sites[id].CreateObject(obj.kind, obj.name, obj.initial)
			if err != nil {
				return nil, fmt.Errorf("sim: create %s at S%d: %w", obj.name, i, err)
			}
			join := &pendingTxn{site: id, h: w.sites[id].JoinObject(r, 1, first.ID())}
			if err := w.until("join decision", join.poll); err != nil {
				return nil, err
			}
			if join.res.Err != nil || !join.res.Committed {
				return nil, fmt.Errorf("sim: join %s from S%d: %+v", obj.name, i, join.res)
			}
			bysite[i] = r
		}
		refs[obj.name] = bysite
	}
	// Joins commit at their origin before every member has applied the
	// merged graph; drive until all members agree.
	err := w.until("replica graphs converged", func() bool {
		for _, bysite := range refs {
			for i := 1; i <= w.profile.Sites; i++ {
				got, err := w.sites[vtime.SiteID(i)].ReplicaSites(bysite[i])
				if err != nil || len(got) != w.profile.Sites {
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	w.tracef("SETUP-DONE sites=%d", w.profile.Sites)
	return refs, nil
}

// scheduleWorkload draws Ops transactions from the mix and schedules
// their submission at seed-chosen virtual times across the span.
func (w *world) scheduleWorkload(refs map[string][]engine.ObjRef) {
	p := w.profile
	for i := 0; i < p.Ops; i++ {
		site := vtime.SiteID(1 + w.rng.Intn(p.Sites))
		at := time.Duration(w.rng.Int63n(int64(p.Span)))
		kind := w.pickOp()
		val := w.rng.Int63n(1000)
		txn := w.buildTxn(kind, site, val, refs)
		n := i
		w.clock.AfterFunc(at, func() {
			w.tracef("SUBMIT S%d op=%s val=%d n=%d", site, kind, val, n)
			w.pending = append(w.pending, &pendingTxn{
				site: site, kind: kind, h: w.sites[site].Submit(txn),
			})
		})
	}
}

func (w *world) pickOp() opKind {
	m := w.profile.Mix
	n := w.rng.Intn(m.total())
	switch {
	case n < m.Write:
		return opWrite
	case n < m.Write+m.Add:
		return opAdd
	case n < m.Write+m.Add+m.List:
		return opList
	default:
		return opAbort
	}
}

func (w *world) buildTxn(kind opKind, site vtime.SiteID, val int64, refs map[string][]engine.ObjRef) *engine.Txn {
	reg := refs["reg"][site]
	ctr := refs["ctr"][site]
	lst := refs["lst"][site]
	switch kind {
	case opWrite:
		return &engine.Txn{Name: "rmw", Execute: func(tx *engine.Tx) error {
			v, err := tx.Read(reg)
			if err != nil {
				return err
			}
			cur, _ := v.(int64)
			return tx.Write(reg, cur+val)
		}}
	case opAdd:
		return &engine.Txn{Name: "add", Execute: func(tx *engine.Tx) error {
			return tx.Add(ctr, val)
		}}
	case opList:
		return &engine.Txn{Name: "append", Execute: func(tx *engine.Tx) error {
			_, err := tx.ListAppend(lst, wire.ChildDecl{Kind: wire.KindInt, Value: val})
			return err
		}}
	default:
		return &engine.Txn{Name: "abort", Execute: func(tx *engine.Tx) error {
			if _, err := tx.Read(reg); err != nil {
				return err
			}
			return errProgrammedAbort
		}}
	}
}

// scheduleFaults schedules the profile's crash and latency flap as
// clock events, so fault timing is part of the seeded schedule.
func (w *world) scheduleFaults() {
	p := w.profile
	if p.Flap {
		// A latency spike through the middle third of the schedule:
		// messages sent during the window land long after later
		// traffic sent outside it (per-pair FIFO still holds).
		on := p.Span/3 + time.Duration(w.rng.Int63n(int64(p.Span/4)))
		off := on + p.Span/4
		spike := 8 * p.Latency
		w.clock.AfterFunc(on, func() {
			w.tracef("FLAP-ON +%s", spike)
			w.faults.DelayFrames(spike)
		})
		w.clock.AfterFunc(off, func() {
			w.tracef("FLAP-OFF")
			w.faults.DelayFrames(0)
		})
	}
	if p.Crash {
		// Kill a seed-chosen site (possibly site 1, every object's
		// initial primary — that path exercises the §3.4 survivor
		// repair consensus) midway through the schedule.
		victim := vtime.SiteID(1 + w.rng.Intn(p.Sites))
		at := p.Span/2 + time.Duration(w.rng.Int63n(int64(p.Span/2)))
		w.clock.AfterFunc(at, func() { w.kill(victim) })
	}
	if p.Cascade {
		// Cascading failure: kill every object's initial primary
		// midway, then kill site 2 — the lowest-ranked survivor, which
		// every peer expects to coordinate site 1's repair — a couple
		// of latency draws later. Depending on the seed the second kill
		// lands while the repair is mid-ballot (forcing a takeover) or
		// just after it decided (forcing a cascaded repair of a graph
		// whose fresh primary is already dead); both must converge.
		first := p.Span / 2
		gap := 2*p.Latency + time.Duration(w.rng.Int63n(int64(4*p.Latency)))
		w.clock.AfterFunc(first, func() { w.kill(1) })
		w.clock.AfterFunc(first+gap, func() { w.kill(2) })
	}
	if p.Offline {
		// A seed-chosen non-primary site goes weakly connected for the
		// middle half of the schedule: partitioned from every peer and
		// falsely suspected, but running the whole time. Site 1 stays
		// out of the draw so every object's primary keeps deciding and
		// the victim accumulates a genuine optimistic tail.
		victim := vtime.SiteID(2 + w.rng.Intn(p.Sites-1))
		w.clock.AfterFunc(p.Span/4, func() {
			w.tracef("OFFLINE S%d", victim)
			w.offline = victim
			for i := 1; i <= p.Sites; i++ {
				id := vtime.SiteID(i)
				if id == victim {
					continue
				}
				w.net.Partition(victim, id)
				w.sites[id].SetPeerDisconnected(victim, true)
				w.sites[victim].SetPeerDisconnected(id, true)
			}
			w.net.Suspect(victim)
		})
		w.clock.AfterFunc(3*p.Span/4, func() {
			w.tracef("RECONNECT S%d", victim)
			for i := 1; i <= p.Sites; i++ {
				id := vtime.SiteID(i)
				if id == victim {
					continue
				}
				w.net.Heal(victim, id)
				w.sites[id].SetPeerDisconnected(victim, false)
				w.sites[victim].SetPeerDisconnected(id, false)
			}
			// The recovery report reaches every peer, which unparks the
			// deferred failover and starts an anti-entropy session with
			// the returning site.
			w.net.Unsuspect(victim)
		})
	}
}

// kill crashes victim now: records it, then detaches it from the
// network (which drops the messages in flight to the victim, delivers
// the ones it sent, and then reports the failure to every peer).
func (w *world) kill(victim vtime.SiteID) {
	w.tracef("KILL S%d", victim)
	w.killed = append(w.killed, victim)
	w.net.Kill(victim)
}

// alive reports whether site survived the run.
func (w *world) alive(site vtime.SiteID) bool {
	for _, k := range w.killed {
		if k == site {
			return false
		}
	}
	return true
}

// KilledLabel renders a kill list for traces and fingerprints.
func KilledLabel(killed []vtime.SiteID) string {
	if len(killed) == 0 {
		return "none"
	}
	parts := make([]string, len(killed))
	for i, k := range killed {
		parts[i] = fmt.Sprintf("S%d", k)
	}
	return strings.Join(parts, ",")
}

// check asserts every end-of-run invariant and returns them joined.
func (w *world) check(refs map[string][]engine.ObjRef) error {
	var problems []string

	// 1. Every transaction submitted at a surviving site reached a
	// decision. (Transactions in flight at the crashed site may hang
	// forever — their site is gone — and are skipped.)
	abandoned := map[vtime.SiteID]uint64{}
	for i, p := range w.pending {
		if !w.alive(p.site) {
			p.poll()
			continue
		}
		if !p.poll() {
			problems = append(problems,
				fmt.Sprintf("txn %d (%s at S%d) undecided after quiescence", i, p.kind, p.site))
			continue
		}
		if errors.Is(p.res.Err, engine.ErrTooManyRetries) {
			abandoned[p.site]++
		}
	}

	// 2. No surviving site holds an undecided guessed transaction.
	for i := 1; i <= w.profile.Sites; i++ {
		id := vtime.SiteID(i)
		if !w.alive(id) {
			continue
		}
		if n := w.sites[id].PendingUndecided(); n != 0 {
			problems = append(problems,
				fmt.Sprintf("S%d: %d transactions still undecided", i, n))
		}
	}

	// 3. Convergence: committed state identical at every surviving
	// site, and current == committed (no optimistic residue survives
	// quiescence — an abandoned residual here is exactly the kind of
	// interleaving bug the sweep exists to catch).
	for _, name := range sharedObjects {
		bysite := refs[name]
		want := ""
		for i := 1; i <= w.profile.Sites; i++ {
			id := vtime.SiteID(i)
			if !w.alive(id) {
				continue
			}
			cm, err := w.sites[id].ReadCommitted(bysite[i])
			if err != nil {
				problems = append(problems, fmt.Sprintf("S%d: read committed %s: %v", i, name, err))
				continue
			}
			cur, err := w.sites[id].ReadCurrent(bysite[i])
			if err != nil {
				problems = append(problems, fmt.Sprintf("S%d: read current %s: %v", i, name, err))
				continue
			}
			got := fmt.Sprintf("%#v", cm)
			if want == "" {
				want = got
			} else if got != want {
				problems = append(problems,
					fmt.Sprintf("%s diverged: S%d committed %s, earlier site committed %s", name, i, got, want))
			}
			if curs := fmt.Sprintf("%#v", cur); curs != got {
				problems = append(problems,
					fmt.Sprintf("S%d %s: current %s != committed %s after quiescence", i, name, curs, got))
			}
		}
	}

	// 4. Obs counter identities (PR 4) at every surviving site.
	for i := 1; i <= w.profile.Sites; i++ {
		id := vtime.SiteID(i)
		if !w.alive(id) {
			continue
		}
		st := w.sites[id].Stats()
		for _, v := range st.IdentityViolations(abandoned[id]) {
			problems = append(problems, fmt.Sprintf("S%d: %s", i, v))
		}
	}

	// 5. Offline runs (§13): a disconnected peer is not a failed one —
	// every transport failure report must park, none may run §3.4
	// failover, and at least one report must actually have parked
	// (otherwise the scenario never exercised the suspicion policy).
	if w.profile.Offline {
		var parked uint64
		for i := 1; i <= w.profile.Sites; i++ {
			st := w.sites[vtime.SiteID(i)].Stats()
			parked += st.FailoversParked
			if st.FailoversRun != 0 {
				problems = append(problems,
					fmt.Sprintf("S%d: %d spurious failover(s) ran for the disconnected peer", i, st.FailoversRun))
			}
		}
		if parked == 0 {
			problems = append(problems, "offline: no failover was parked (suspicion never reached the engine)")
		}
	}

	// 6. The paper's §4 view contracts (Views profiles).
	if w.views != nil {
		problems = append(problems, w.checkViews(refs)...)
	}

	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("sim: %d invariant violation(s):\n  %s",
		len(problems), strings.Join(problems, "\n  "))
}

// fingerprint summarizes final committed state for replay comparison.
func (w *world) fingerprint(refs map[string][]engine.ObjRef) string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d killed=%s offline=S%d", w.steps, KilledLabel(w.killed), w.offline)
	for _, name := range []string{"reg", "ctr", "lst"} {
		for i := 1; i <= w.profile.Sites; i++ {
			id := vtime.SiteID(i)
			if !w.alive(id) {
				continue
			}
			v, err := w.sites[id].ReadCommitted(refs[name][i])
			if err != nil {
				fmt.Fprintf(&b, " %s@S%d=err:%v", name, i, err)
				continue
			}
			fmt.Fprintf(&b, " %s@S%d=%#v", name, i, v)
		}
	}
	return b.String()
}
