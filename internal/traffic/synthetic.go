package traffic

import (
	"fmt"
	"math/bits"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// PermutationKind selects one of the classic NoC synthetic permutation
// patterns (Dally & Towles). The thesis evaluates uniform and skewed
// workloads; these patterns are standard simulator equipment, exercising
// adversarial spatial structure — particularly interesting for the torus
// baseline, whose blocking behaviour is path-dependent.
type PermutationKind int

// Permutation kinds.
const (
	// Transpose sends core (x,y) to core (y,x) of the logical core grid.
	Transpose PermutationKind = iota + 1
	// BitComplement sends core i to core ^i (within the core-index
	// width).
	BitComplement
	// BitReverse sends core i to the bit-reversal of i.
	BitReverse
	// Shuffle sends core i to rotate-left(i, 1).
	Shuffle
	// Neighbor sends cluster c's cores to cluster (c+1)'s cores — the
	// friendliest pattern for a torus, adversarial for a shared-channel
	// crossbar writer.
	Neighbor
)

// String returns the pattern name.
func (k PermutationKind) String() string {
	switch k {
	case Transpose:
		return "transpose"
	case BitComplement:
		return "bit-complement"
	case BitReverse:
		return "bit-reverse"
	case Shuffle:
		return "shuffle"
	case Neighbor:
		return "neighbor"
	default:
		return "unknown"
	}
}

// Permutation is a deterministic-destination synthetic pattern: every core
// offers the fair share of the bandwidth set's aggregate capacity to one
// fixed partner.
type Permutation struct {
	Kind PermutationKind
}

// Name implements Pattern.
func (p Permutation) Name() string { return p.Kind.String() }

// Assign implements Pattern.
func (p Permutation) Assign(set BandwidthSet) (Assignment, error) {
	perCore := fairShare(set)

	cores := make([]CoreProfile, chip.Cores())
	for c := range cores {
		dst, err := p.partner(topology.CoreID(c))
		if err != nil {
			return Assignment{}, err
		}
		if dst == topology.CoreID(c) {
			// Fixed points (e.g. the transpose diagonal) stay silent, as
			// in standard NoC methodology.
			cores[c] = CoreProfile{}
			continue
		}
		target := dst
		self := chip.ClusterOf(topology.CoreID(c))
		profile := CoreProfile{
			RateGbps:   perCore,
			DemandGbps: perCore * float64(chip.ClusterSize()),
			PickDest:   func(*sim.RNG) topology.CoreID { return target },
		}
		if dstCl := chip.ClusterOf(target); dstCl != self {
			profile.DemandDests = []topology.ClusterID{dstCl}
		}
		cores[c] = profile
	}
	return Assignment{Name: p.Name(), Cores: cores}, nil
}

// transposeSide is the side of the logical core grid Transpose mirrors:
// the 64 cores as 8 x 8.
const transposeSide = 8

// partner returns the fixed destination of core c. The bit patterns act
// on the core index's width: 64 cores are 6 bits.
func (p Permutation) partner(c topology.CoreID) (topology.CoreID, error) {
	n := chip.Cores()
	width := bits.Len(uint(n)) - 1
	switch p.Kind {
	case Transpose:
		x, y := int(c)%transposeSide, int(c)/transposeSide
		return topology.CoreID(x*transposeSide + y), nil
	case BitComplement:
		return topology.CoreID(int(c) ^ (n - 1)), nil
	case BitReverse:
		return topology.CoreID(int(bits.Reverse(uint(c)) >> (bits.UintSize - width))), nil
	case Shuffle:
		v := int(c) << 1
		return topology.CoreID((v | (v >> width)) & (n - 1)), nil
	case Neighbor:
		next := (int(chip.ClusterOf(c)) + 1) % chip.Clusters()
		return chip.CoreAt(topology.ClusterID(next), chip.LocalIndex(c)), nil
	default:
		return 0, fmt.Errorf("traffic: unknown permutation kind %d", p.Kind)
	}
}
