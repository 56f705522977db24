// Package helper is tooling-side code: direct-use reports and maprange
// ignore it, so nondeterminism here only matters when a simulator
// package calls in — which the taint pass decides.
package helper

import (
	"sort"
	"time"
)

// Jitter is tainted transitively through entropy.
func Jitter() { _ = entropy() }

func entropy() int64 { return time.Now().UnixNano() }

// Shuffle is intrinsically tainted: map iteration order is random.
func Shuffle() {
	m := map[int]int{1: 1}
	for k := range m {
		_ = k
	}
}

// Clean is deterministic and must not be flagged.
func Clean() int { return 42 }

// SortedWalk uses the sorted-iteration prologue; the sort erases the
// collection order, so no taint.
func SortedWalk() {
	m := map[int]int{1: 1}
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
}

// OrderFree's range is justified order-insensitive.
func OrderFree() int {
	m := map[int]int{1: 1}
	n := 0
	//hetpnoc:orderfree commutative sum
	for _, v := range m {
		n += v
	}
	return n
}
