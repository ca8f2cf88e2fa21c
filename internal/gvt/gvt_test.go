package gvt

import (
	"testing"

	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// group attaches n members to a zero-latency network, which delivers
// every send into the destination's inbox at once, and injects the
// token.
func group(t *testing.T, n int) []*Site {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	t.Cleanup(net.Close)
	ring := make([]vtime.SiteID, n)
	for i := range ring {
		ring[i] = vtime.SiteID(i + 1)
	}
	sites := make([]*Site, n)
	for i := range sites {
		ep, err := net.Endpoint(ring[i])
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = NewSite(ep, ring)
	}
	for _, s := range sites {
		s.Start()
	}
	return sites
}

// stepUntil steps every site, in ring order, until cond holds. The token
// never stops circulating, so the loop is bounded by passes.
func stepUntil(t *testing.T, sites []*Site, what string, cond func() bool) {
	t.Helper()
	for pass := 0; pass < 1000; pass++ {
		if cond() {
			return
		}
		for _, s := range sites {
			s.Step()
		}
	}
	t.Fatalf("%s: not reached after 1000 passes", what)
}

// committed reports whether p's write has committed.
func committed(p *Pending) func() bool {
	return func() bool { return len(p.Done()) > 0 }
}

func TestGVTWriteCommits(t *testing.T) {
	sites := group(t, 3)
	stepUntil(t, sites, "write committed", committed(sites[0].Write("x", int64(7))))
	stepUntil(t, sites, "replicas converged", func() bool {
		for _, s := range sites {
			if s.ReadCommitted("x") != int64(7) {
				return false
			}
		}
		return true
	})
}

func TestGVTCommitOrderMonotonic(t *testing.T) {
	sites := group(t, 3)

	var commits []vtime.VT
	sites[2].OnCommit(func(name string, value any, vt vtime.VT) {
		commits = append(commits, vt)
	})

	var pendings []*Pending
	for k := 0; k < 5; k++ {
		pendings = append(pendings, sites[0].Write("a", int64(k)))
		pendings = append(pendings, sites[1].Write("b", int64(k)))
	}
	stepUntil(t, sites, "observer saw 10 commits", func() bool {
		for _, p := range pendings {
			if !committed(p)() {
				return false
			}
		}
		return len(commits) >= 10
	})
	for i := 1; i < len(commits); i++ {
		if !commits[i-1].Less(commits[i]) {
			t.Fatalf("commit order not monotonic: %v then %v", commits[i-1], commits[i])
		}
	}
}

func TestGVTSingleMember(t *testing.T) {
	sites := group(t, 1)
	p := sites[0].Write("x", int64(1))
	if !committed(p)() {
		t.Fatal("single-member write did not commit at once")
	}
	if sites[0].ReadCommitted("x") != int64(1) {
		t.Fatal("value not committed")
	}
}
