package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by nearest
// rank, and 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) does, so
// -repeat reports the same spread the acceptance procedure computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
