package sim

import "math/bits"

// Bitset is a fixed-size set of small integers, used by the fabric to
// track which components (routers, cores, transmit engines) currently
// have work. Words are exposed so the per-cycle scheduler can iterate
// set bits without allocating.
type Bitset struct {
	words []uint64
}

// NewBitset returns an empty set able to hold values in [0, n).
func NewBitset(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)/64)}
}

// Set adds i to the set.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i from the set.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether i is in the set.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Words returns the live backing words, least-significant bit first.
// Callers iterate set bits with math/bits.TrailingZeros64; mutating the
// set invalidates nothing, but bits set after a word was read are only
// observed on the next pass.
func (b *Bitset) Words() []uint64 { return b.words }

// Count returns the number of set bits (diagnostics).
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Refill returns a set holding src's bits in b's words, allocated when
// b has too few: checkpointing copies a set into and out of its own
// storage with it, so a restore into a set of the same size allocates
// nothing and shares no words with the checkpoint.
func (b Bitset) Refill(src Bitset) Bitset {
	return Bitset{words: append(b.words[:0], src.words...)}
}

// NextSet returns the position of the first set bit at or after from in
// words, or -1 when none remains. It is the shared building block of the
// arbitration and scheduling kernels: circular round-robin scans call it
// twice (once from the cursor, once from zero) instead of walking
// per-object state.
func NextSet(words []uint64, from int) int {
	// The unsigned compare also rejects a negative from, so the first-word
	// access below needs no bounds check even when inlined into a caller's
	// scan loop.
	w := from >> 6
	if uint(w) >= uint(len(words)) {
		return -1
	}
	if word := words[w] &^ (1<<(uint(from)&63) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	for w++; w < len(words); w++ {
		if words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(words[w])
		}
	}
	return -1
}
