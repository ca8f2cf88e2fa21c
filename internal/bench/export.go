package bench

import "time"

// Thin exported wrappers so the repository-root `go test -bench` harness
// can reuse the experiment bodies without duplicating them.

// RunE4ForBench runs one E4 configuration and returns (lost, notified,
// committed-updates).
func RunE4ForBench(cfg LoadConfig, rate float64) (lost, notified, total uint64, err error) {
	return runE4(cfg, rate)
}

// RunE5ForBench runs one E5 configuration and returns (commits,
// rollbacks, update inconsistencies).
func RunE5ForBench(cfg LoadConfig, rateA, rateB float64) (commits, rollbacks, inconsistencies uint64, err error) {
	return runE5(cfg, rateA, rateB)
}

// RunE7DecafForBench measures the mean local-action visibility latency of
// the replicated architecture.
func RunE7DecafForBench(t time.Duration, trials int) (time.Duration, error) {
	return runE7Decaf(t, trials)
}

// RunE7CentralizedForBench measures the mean echo round trip of the
// centralized architecture.
func RunE7CentralizedForBench(t time.Duration, trials int) (time.Duration, error) {
	return runE7Centralized(t, trials)
}
