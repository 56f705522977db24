package experiments

import (
	"hetpnoc/internal/area"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

// PeakBandwidth lists the runs of Figures 3-3 (peak bandwidth) and 3-4
// (packet energy): both architectures under uniform-random traffic and
// the three skewed levels of Table 3-1, for each requested bandwidth set.
// Their rows carry both metrics.
func PeakBandwidth(sets []traffic.BandwidthSet) []fabric.Config {
	patterns := []traffic.Pattern{traffic.Uniform{}, traffic.Skewed{Level: 1}, traffic.Skewed{Level: 2}, traffic.Skewed{Level: 3}}
	var cfgs []fabric.Config
	for _, set := range sets {
		cfgs = append(cfgs, pairs(set, patterns)...)
	}
	return cfgs
}

// CaseStudies lists the runs of Figure 3-5: the four skewed-hotspot
// synthetic patterns of §3.4.2 plus the real-application GPU/memory
// traffic, for both architectures at the given bandwidth set.
func CaseStudies(set traffic.BandwidthSet) []fabric.Config {
	var patterns []traffic.Pattern
	for _, h := range traffic.CaseStudies() {
		patterns = append(patterns, h)
	}
	return pairs(set, append(patterns, traffic.RealApp{}))
}

// pairs lists a Firefly and a d-HetPNoC config for each pattern at set.
func pairs(set traffic.BandwidthSet, patterns []traffic.Pattern) []fabric.Config {
	var cfgs []fabric.Config
	for _, p := range patterns {
		for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
			cfgs = append(cfgs, fabric.Config{Set: set, Pattern: p, Arch: arch})
		}
	}
	return cfgs
}

// AreaSweep reproduces Figure 3-6: total electro-optic device area of both
// architectures as the aggregate data bandwidth grows.
func AreaSweep(wavelengths []int) []area.Point {
	if len(wavelengths) == 0 {
		wavelengths = []int{64, 128, 192, 256, 320, 384, 448, 512}
	}
	return area.Sweep(wavelengths)
}
