package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"decaf/internal/gvt"
	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// GVTProfile parameterizes a simulated run of the baseline GVT-swept
// protocol (internal/gvt): a token ring of Sites members issuing Writes
// blind writes to a handful of shared registers.
type GVTProfile struct {
	Name    string
	Sites   int
	Latency time.Duration
	Jitter  time.Duration
	Writes  int
	Span    time.Duration
}

func (p GVTProfile) withDefaults() GVTProfile {
	if p.Sites == 0 {
		p.Sites = 3
	}
	if p.Latency == 0 {
		p.Latency = 5 * time.Millisecond
	}
	if p.Writes == 0 {
		p.Writes = 12
	}
	if p.Span == 0 {
		p.Span = 30 * p.Latency
	}
	return p
}

// RunGVT simulates one seeded run of the GVT baseline and asserts its
// two core invariants: every site's GVT estimate is monotonically
// non-decreasing, and once every write has committed the committed
// register maps are identical at all sites.
//
// Unlike the engine, a GVT group never goes globally idle — the sweep
// token circulates forever — so the run is bounded by a step budget and
// terminates on convergence, not on clock exhaustion.
func RunGVT(p GVTProfile, seed int64) (res Result) {
	p = p.withDefaults()
	// Named return: the deferred trace capture must mutate the value
	// the caller sees, even on early-error returns.
	res = Result{Profile: "gvt/" + p.Name, Seed: seed}

	ls := &lockstep{clock: NewClock()}
	clock := ls.clock
	var trace strings.Builder
	net := transport.NewNetwork(transport.Config{
		Latency: p.Latency,
		Jitter:  p.Jitter,
		Seed:    seed,
		Clock:   clock,
		OnDeliver: func(to vtime.SiteID, ev transport.Event) {
			if ev.Kind == transport.EventMessage {
				fmt.Fprintf(&trace, "%5d %9s S%d->S%d %s sent=%s\n",
					ls.steps, clock.Now(), ev.From, to, msgName(ev.Msg), ev.SentAt)
			}
		},
	})
	defer net.Close()
	defer func() {
		res.Steps = ls.steps
		res.Trace = trace.String()
	}()

	ring := make([]vtime.SiteID, p.Sites)
	for i := range ring {
		ring[i] = vtime.SiteID(i + 1)
	}
	sites := make([]*gvt.Site, p.Sites+1)
	for i := 1; i <= p.Sites; i++ {
		ep, err := net.Endpoint(vtime.SiteID(i))
		if err != nil {
			res.Err = fmt.Errorf("sim: endpoint %d: %w", i, err)
			return res
		}
		sites[i] = gvt.NewSite(ep, ring)
		ls.members = append(ls.members, sites[i])
	}
	for i := 1; i <= p.Sites; i++ {
		sites[i].Start()
	}

	// Schedule the writes at seeded virtual times.
	rng := rand.New(rand.NewSource(seed ^ 0x5bf03635))
	regs := []string{"a", "b", "c"}
	type pendingWrite struct {
		p    *gvt.Pending
		done bool
	}
	pendings := make([]*pendingWrite, 0, p.Writes)
	for i := 0; i < p.Writes; i++ {
		site := 1 + rng.Intn(p.Sites)
		at := time.Duration(rng.Int63n(int64(p.Span)))
		name := regs[rng.Intn(len(regs))]
		val := rng.Int63n(1000)
		n := i
		clock.AfterFunc(at, func() {
			fmt.Fprintf(&trace, "%5d %9s WRITE S%d %s=%d n=%d\n",
				ls.steps, clock.Now(), site, name, val, n)
			pendings = append(pendings, &pendingWrite{p: sites[site].Write(name, val)})
		})
	}

	// Drive in lock-step, asserting GVT monotonicity at every quiescent
	// point, until every write committed and all sites agree.
	last := make([]vtime.VT, p.Sites+1)
	converged := func() bool {
		if len(pendings) < p.Writes {
			return false
		}
		for _, pd := range pendings {
			if pd.done {
				continue
			}
			select {
			case <-pd.p.Done():
				pd.done = true
			default:
				return false
			}
		}
		for _, name := range regs {
			want := fmt.Sprintf("%#v", sites[1].ReadCommitted(name))
			for i := 2; i <= p.Sites; i++ {
				if got := fmt.Sprintf("%#v", sites[i].ReadCommitted(name)); got != want {
					return false
				}
			}
		}
		return true
	}
	var regressed error
	err := ls.until("convergence", func() bool {
		for i := 1; i <= p.Sites; i++ {
			g := sites[i].GVT()
			if g.Less(last[i]) {
				regressed = fmt.Errorf("sim: GVT regressed at S%d: %s -> %s (step %d)",
					i, last[i], g, ls.steps)
				return true
			}
			last[i] = g
		}
		return converged()
	})
	if err == nil {
		err = regressed
	}
	if err != nil {
		res.Err = err
		return res
	}

	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d", ls.steps)
	for _, name := range regs {
		fmt.Fprintf(&b, " %s=%#v", name, sites[1].ReadCommitted(name))
	}
	res.Fingerprint = b.String()
	return res
}
