// Package router exercises allocproof against a canned compiler report:
// a simulator package (by its path's suffix) with one occupancy scan
// loop.
package router

import "math/bits"

// Tick's head load sits outside any scan loop, so its bounds fact stays
// silent; the store inside the loop is reported.
func Tick(words []uint64, sink []int) int {
	head := int(words[0])
	for _, word := range words {
		for ; word != 0; word &= word - 1 {
			i := bits.TrailingZeros64(word)
			sink[i]++ // want `bounds check not eliminated inside an occupancy word-scan loop: Found IsInBounds`
		}
	}
	return head
}
