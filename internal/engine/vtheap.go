package engine

import "decaf/internal/vtime"

// vtHeap is a binary min-heap of virtual times. It holds plain values
// (container/heap would box every VT) and knows nothing of what the VTs
// name: the GC floor pushes a transaction's VT once and drops entries
// that have gone stale when they surface at the top (lazy deletion).
type vtHeap []vtime.VT

func (h *vtHeap) push(v vtime.VT) {
	a := append(*h, v)
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a[i].Less(a[parent]) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
	*h = a
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *vtHeap) pop() vtime.VT {
	a := *h
	min := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && a[l].Less(a[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && a[r].Less(a[least]) {
			least = r
		}
		if least == i {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	*h = a
	return min
}
