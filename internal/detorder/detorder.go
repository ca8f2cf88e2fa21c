// Package detorder provides deterministic iteration over Go maps.
//
// Go randomizes map iteration order on every range statement. That is
// fine for state with pure set semantics, but anywhere iteration order
// feeds something observable — protocol fan-out (which peer's message
// enters the network first), snapshot encoding (which object's bytes
// come first), trace and debug output — randomized order turns a
// deterministic algorithm into a coin flip. The replicated engine's
// whole correctness story (DESIGN.md §12) requires a run to be a pure
// function of (profile, seed), so every order-sensitive map walk in the
// deterministic packages goes through one of these helpers instead of
// ranging the map directly.
//
// The decaf-vet `maporder` analyzer enforces the discipline: a `range`
// over a map type inside engine/history/gvt/vtime/sim whose body
// mutates escaping state, sends, or emits output is a diagnostic;
// ranging over the sorted key slice returned by this package is the
// sanctioned pattern. Bodies that are provably commutative may instead
// carry a reasoned //decaf:ignore maporder directive.
//
// The cost is one O(n log n) sort per walk, paid off the per-message
// hot path (fan-outs, snapshots, GC sweeps happen per batch or per
// protocol round, not per message). The sorts are the generic ones of
// package slices: no reflection, and no allocation beyond the returned
// key slice.
package detorder

import (
	"cmp"
	"slices"
)

// Sorted returns the keys of m in ascending natural order.
func Sorted[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// SortedFunc returns the keys of m sorted by less, for key types (VTs,
// object IDs) whose order is a method rather than <. less must describe
// a strict weak ordering that is total over the keys present, or the
// result order is unspecified.
func SortedFunc[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b K) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return out
}
