// Package tool is not a simulator package: its scan loop is not checked.
package tool

import "math/bits"

// Count walks set bits like the simulator does.
func Count(words []uint64, sink []int) {
	for _, word := range words {
		for ; word != 0; word &= word - 1 {
			sink[bits.TrailingZeros64(word)]++
		}
	}
}
