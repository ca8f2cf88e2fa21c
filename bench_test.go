package decaf_test

// Throughput microbenchmarks of the public API on the in-memory
// network. The paper's §5 latency and load experiments run in virtual
// time instead (internal/sim, `go run ./cmd/decaf-sim -paper`).

import (
	"testing"
	"time"

	"decaf"
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
