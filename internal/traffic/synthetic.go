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
func (p Permutation) Assign(topo topology.Topology, set BandwidthSet) (Assignment, error) {
	if err := set.Validate(); err != nil {
		return Assignment{}, err
	}
	perCore := fairShare(topo, set)

	cores := make([]CoreProfile, topo.Cores())
	for c := range cores {
		dst, err := p.partner(topo, topology.CoreID(c))
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
		self := topo.ClusterOf(topology.CoreID(c))
		profile := CoreProfile{
			RateGbps:   perCore,
			DemandGbps: perCore * float64(topo.ClusterSize()),
			PickDest:   func(*sim.RNG) topology.CoreID { return target },
		}
		if dstCl := topo.ClusterOf(target); dstCl != self {
			profile.DemandDests = []topology.ClusterID{dstCl}
		}
		cores[c] = profile
	}
	return Assignment{Name: p.Name(), Cores: cores}, nil
}

// partner returns the fixed destination of core c.
func (p Permutation) partner(topo topology.Topology, c topology.CoreID) (topology.CoreID, error) {
	n := topo.Cores()
	switch p.Kind {
	case Transpose:
		side := intSqrt(n)
		if side == 0 {
			return 0, fmt.Errorf("traffic: transpose needs a square core count, got %d", n)
		}
		x, y := int(c)%side, int(c)/side
		return topology.CoreID(x*side + y), nil
	case BitComplement:
		if n&(n-1) != 0 {
			return 0, fmt.Errorf("traffic: bit-complement needs a power-of-two core count, got %d", n)
		}
		return topology.CoreID(int(c) ^ (n - 1)), nil
	case BitReverse:
		if n&(n-1) != 0 {
			return 0, fmt.Errorf("traffic: bit-reverse needs a power-of-two core count, got %d", n)
		}
		width := bits.Len(uint(n)) - 1
		return topology.CoreID(int(bits.Reverse(uint(c)) >> (bits.UintSize - width))), nil
	case Shuffle:
		if n&(n-1) != 0 {
			return 0, fmt.Errorf("traffic: shuffle needs a power-of-two core count, got %d", n)
		}
		width := bits.Len(uint(n)) - 1
		v := int(c) << 1
		return topology.CoreID((v | (v >> width)) & (n - 1)), nil
	case Neighbor:
		next := (int(topo.ClusterOf(c)) + 1) % topo.Clusters()
		return topo.CoreAt(topology.ClusterID(next), topo.LocalIndex(c)), nil
	default:
		return 0, fmt.Errorf("traffic: unknown permutation kind %d", p.Kind)
	}
}

func intSqrt(n int) int {
	for s := 0; s*s <= n; s++ {
		if s*s == n {
			return s
		}
	}
	return 0
}
