package decaf_test

// Benchmarks regenerating the paper's evaluation (§5), one per
// table/figure — see DESIGN.md's experiment index and EXPERIMENTS.md for
// recorded results. ns/op is the measured latency where the benchmark
// name says "Latency"; custom metrics carry rates. The full sweeps with
// printed tables live in cmd/decaf-bench.

import (
	"fmt"
	"testing"
	"time"

	"decaf"
	"decaf/internal/bench"
	"decaf/internal/gvt"
	"decaf/internal/transport"
	"decaf/internal/vtime"
)

// benchPair builds two joined Int replicas over a simulated network.
func benchPair(b *testing.B, t time.Duration) (*decaf.Site, *decaf.Site, *decaf.Int, *decaf.Int, func()) {
	b.Helper()
	net := decaf.NewSimNetwork(decaf.SimConfig{Latency: t})
	s1, err := decaf.Dial(net, 1)
	if err != nil {
		b.Fatal(err)
	}
	s2, err := decaf.Dial(net, 2)
	if err != nil {
		b.Fatal(err)
	}
	o1, _ := s1.NewInt("x")
	o2, _ := s2.NewInt("x")
	if res := s2.JoinObject(o2, 1, o1.Ref().ID()).Wait(); !res.Committed {
		b.Fatalf("join: %+v", res)
	}
	cleanup := func() {
		s1.Close()
		s2.Close()
		net.Close()
	}
	return s1, s2, o1, o2, cleanup
}

// BenchmarkLocalTxnThroughput measures raw transaction execution and
// commit speed with no replication (the framework-overhead floor).
func BenchmarkLocalTxnThroughput(b *testing.B) {
	net := decaf.NewSimNetwork(decaf.SimConfig{})
	s, err := decaf.Dial(net, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { s.Close(); net.Close() }()
	o, _ := s.NewInt("x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.ExecuteFunc(func(tx *decaf.Tx) error {
			o.Set(tx, o.Value(tx)+1)
			return nil
		}).Wait()
		if !res.Committed {
			b.Fatalf("txn failed: %+v", res)
		}
	}
}

// BenchmarkReplicatedTxnThroughput measures commit throughput for a
// two-site replicated object with negligible network latency.
func BenchmarkReplicatedTxnThroughput(b *testing.B) {
	_, s2, _, o2, cleanup := benchPair(b, 0)
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s2.ExecuteFunc(func(tx *decaf.Tx) error {
			o2.Set(tx, int64(i))
			return nil
		}).Wait()
		if !res.Committed {
			b.Fatalf("txn failed: %+v", res)
		}
	}
}

// BenchmarkObsOverhead measures the same replicated commit path as
// BenchmarkReplicatedTxnThroughput but with full observability enabled
// (metrics + tracing + wall-clock latency stamps on both sites); the
// ns/op delta between the two is the internal/obs hot-path cost. Under
// load the same cost is the benchmark's obs.trace_overhead_pct.
func BenchmarkObsOverhead(b *testing.B) {
	net := decaf.NewSimNetwork(decaf.SimConfig{})
	s1, err := decaf.DialOptions(net, 1, decaf.Options{Observer: decaf.NewObserver()})
	if err != nil {
		b.Fatal(err)
	}
	s2, err := decaf.DialOptions(net, 2, decaf.Options{Observer: decaf.NewObserver()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { s1.Close(); s2.Close(); net.Close() }()
	o1, _ := s1.NewInt("x")
	o2, _ := s2.NewInt("x")
	if res := s2.JoinObject(o2, 1, o1.Ref().ID()).Wait(); !res.Committed {
		b.Fatalf("join: %+v", res)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s2.ExecuteFunc(func(tx *decaf.Tx) error {
			o2.Set(tx, int64(i))
			return nil
		}).Wait()
		if !res.Committed {
			b.Fatalf("txn failed: %+v", res)
		}
	}
}

// BenchmarkE1CommitLatency regenerates §5.1.1: ns/op is the origin-site
// commit latency; with t=2ms the model says 4ms (2t) for a remote
// primary and ~0 for a local primary.
func BenchmarkE1CommitLatency(b *testing.B) {
	const t = 2 * time.Millisecond
	b.Run("remote-primary-2t", func(b *testing.B) {
		_, s2, _, o2, cleanup := benchPair(b, t) // primary at site 1
		defer cleanup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := s2.ExecuteFunc(func(tx *decaf.Tx) error {
				o2.Set(tx, int64(i))
				return nil
			}).Wait(); !res.Committed {
				b.Fatal("txn failed")
			}
		}
	})
	b.Run("local-primary-0t", func(b *testing.B) {
		s1, _, o1, _, cleanup := benchPair(b, t) // primary at site 1
		defer cleanup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := s1.ExecuteFunc(func(tx *decaf.Tx) error {
				o1.Set(tx, int64(i))
				return nil
			}).Wait(); !res.Committed {
				b.Fatal("txn failed")
			}
		}
	})
}

// BenchmarkE2PessimisticViewLatency regenerates §5.1.2 at the origin:
// ns/op is the time from execution until the pessimistic view is
// notified (model: 2t).
func BenchmarkE2PessimisticViewLatency(b *testing.B) {
	const t = 2 * time.Millisecond
	_, s2, _, o2, cleanup := benchPair(b, t)
	defer cleanup()

	notify := make(chan int64, 64)
	v := decaf.ViewFunc(func(s *decaf.Snapshot) {
		select {
		case notify <- s.Int(o2):
		default:
		}
	})
	if _, err := s2.Attach(v, decaf.Pessimistic, o2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := int64(i + 1)
		s2.ExecuteFunc(func(tx *decaf.Tx) error {
			o2.Set(tx, want)
			return nil
		})
		for got := range notify {
			if got == want {
				break
			}
		}
	}
}

// BenchmarkE4LostUpdates regenerates the §5.2.2 blind-write benchmark:
// the custom metric lost% is the optimistic-view lost-update rate under
// two-party load.
func BenchmarkE4LostUpdates(b *testing.B) {
	cfg := bench.DefaultLoadConfig()
	cfg.Duration = 500 * time.Millisecond
	b.ResetTimer()
	var lost, notified uint64
	for i := 0; i < b.N; i++ {
		l, n, _, err := bench.RunE4ForBench(cfg, 20)
		if err != nil {
			b.Fatal(err)
		}
		lost += l
		notified += n
	}
	if lost+notified > 0 {
		b.ReportMetric(100*float64(lost)/float64(lost+notified), "lost%")
	}
}

// BenchmarkE5Rollbacks regenerates the §5.2.2 read-write benchmark: the
// custom metric rollback% is the conflict-abort rate.
func BenchmarkE5Rollbacks(b *testing.B) {
	cfg := bench.DefaultLoadConfig()
	cfg.Duration = 300 * time.Millisecond
	b.ResetTimer()
	var commits, rollbacks uint64
	for i := 0; i < b.N; i++ {
		c, r, _, err := bench.RunE5ForBench(cfg, 10, 10)
		if err != nil {
			b.Fatal(err)
		}
		commits += c
		rollbacks += r
	}
	if commits+rollbacks > 0 {
		b.ReportMetric(100*float64(rollbacks)/float64(commits+rollbacks), "rollback%")
	}
}

// BenchmarkE6Scalability regenerates §5.1.3: ns/op is commit latency as
// the network grows. DECAF stays flat (~2t); the GVT sweep grows with N.
func BenchmarkE6Scalability(b *testing.B) {
	const t = 2 * time.Millisecond
	for _, n := range []int{3, 9, 17} {
		b.Run(fmt.Sprintf("decaf-n%d", n), func(b *testing.B) {
			net := decaf.NewSimNetwork(decaf.SimConfig{Latency: t})
			defer net.Close()
			var sites []*decaf.Site
			for i := 1; i <= n; i++ {
				s, err := decaf.Dial(net, vtime.SiteID(i))
				if err != nil {
					b.Fatal(err)
				}
				sites = append(sites, s)
			}
			defer func() {
				for _, s := range sites {
					s.Close()
				}
			}()
			// One replica set among sites 1..3; the rest of the network
			// exists but does not participate.
			root, _ := sites[0].NewInt("x")
			var mine *decaf.Int
			for i := 2; i <= 3; i++ {
				o, _ := sites[i-1].NewInt("x")
				if res := sites[i-1].JoinObject(o, 1, root.Ref().ID()).Wait(); !res.Committed {
					b.Fatal("join failed")
				}
				if i == 2 {
					mine = o
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := sites[1].ExecuteFunc(func(tx *decaf.Tx) error {
					mine.Set(tx, int64(i))
					return nil
				}).Wait(); !res.Committed {
					b.Fatal("txn failed")
				}
			}
		})
		b.Run(fmt.Sprintf("gvt-n%d", n), func(b *testing.B) {
			net := transport.NewNetwork(transport.Config{Latency: t})
			defer net.Close()
			ring := make([]vtime.SiteID, n)
			for i := range ring {
				ring[i] = vtime.SiteID(i + 1)
			}
			var sites []*gvt.Site
			for _, id := range ring {
				ep, err := net.Endpoint(id)
				if err != nil {
					b.Fatal(err)
				}
				sites = append(sites, gvt.NewSite(ep, ring))
			}
			for _, s := range sites {
				s.Start()
			}
			defer func() {
				for _, s := range sites {
					s.Stop()
				}
			}()
			<-sites[1].Write("warm", int64(0)).Done()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				<-sites[1].Write("x", int64(i)).Done()
			}
		})
	}
}

// BenchmarkE7CentralizedEcho regenerates the §1 responsiveness baseline:
// ns/op is the centralized round-trip (model 2t) versus DECAF's local
// optimistic notification measured in BenchmarkE7DecafLocal.
func BenchmarkE7CentralizedEcho(b *testing.B) {
	const t = 2 * time.Millisecond
	d, err := bench.RunE7CentralizedForBench(t, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(d.Microseconds())/1000, "echo_ms")
	for i := 0; i < b.N; i++ {
		_ = i // the measurement above is per-run; keep the loop trivial
	}
}

// BenchmarkE7DecafLocal measures the replicated architecture's local
// action visibility (optimistic view at the origin).
func BenchmarkE7DecafLocal(b *testing.B) {
	const t = 2 * time.Millisecond
	d, err := bench.RunE7DecafForBench(t, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(d.Microseconds())/1000, "local_ms")
	for i := 0; i < b.N; i++ {
		_ = i
	}
}
