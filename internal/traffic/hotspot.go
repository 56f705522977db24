package traffic

import (
	"fmt"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// SkewedHotspot is the synthetic case-study pattern of §3.4.2: cluster 0
// is the hotspot (a scheduler or controller), every core sends a fixed
// fraction of its traffic there, and the remainder follows a skewed
// pattern.
//
// The four case studies of the thesis are:
//
//	skewed-hotspot1: 10% hotspot + skewed 2 remainder
//	skewed-hotspot2: 10% hotspot + skewed 3 remainder
//	skewed-hotspot3: 20% hotspot + skewed 2 remainder
//	skewed-hotspot4: 20% hotspot + skewed 3 remainder
type SkewedHotspot struct {
	// Index is the case-study number, 1-4, used only for naming.
	Index int
	// HotFraction is the share of each core's traffic sent to the
	// hotspot cluster (0.10 or 0.20).
	HotFraction float64
	// BaseLevel is the skew level of the remaining traffic (2 or 3).
	BaseLevel int
}

// hotspotCluster is the hotspot of every SkewedHotspot.
const hotspotCluster topology.ClusterID = 0

// CaseStudies returns the four skewed-hotspot configurations of §3.4.2
// with cluster 0 as the hotspot.
func CaseStudies() []SkewedHotspot {
	return []SkewedHotspot{
		{Index: 1, HotFraction: 0.10, BaseLevel: 2},
		{Index: 2, HotFraction: 0.10, BaseLevel: 3},
		{Index: 3, HotFraction: 0.20, BaseLevel: 2},
		{Index: 4, HotFraction: 0.20, BaseLevel: 3},
	}
}

// Name implements Pattern.
func (h SkewedHotspot) Name() string { return fmt.Sprintf("skewed-hotspot%d", h.Index) }

// Assign implements Pattern.
func (h SkewedHotspot) Assign(set BandwidthSet) (Assignment, error) {
	if h.HotFraction < 0 || h.HotFraction >= 1 {
		return Assignment{}, fmt.Errorf("traffic: hotspot fraction %g outside [0,1)", h.HotFraction)
	}

	base, err := Skewed{Level: h.BaseLevel}.Assign(set)
	if err != nil {
		return Assignment{}, err
	}

	cores := make([]CoreProfile, len(base.Cores))
	copy(cores, base.Cores)
	hot := sim.ChanceOf(h.HotFraction)
	for c := range cores {
		src := chip.ClusterOf(topology.CoreID(c))
		baseDest := cores[c].PickDest
		if src == hotspotCluster {
			// The hotspot cluster itself only generates base traffic.
			continue
		}
		cores[c].PickDest = func(rng *sim.RNG) topology.CoreID {
			if rng.Draw(hot) {
				return chip.CoreAt(hotspotCluster, rng.Intn(chip.ClusterSize()))
			}
			return baseDest(rng)
		}
	}
	return Assignment{Name: h.Name(), Cores: cores}, nil
}
