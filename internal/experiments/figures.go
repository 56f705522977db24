package experiments

import (
	"context"

	"hetpnoc/internal/area"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/gpgpu"
	"hetpnoc/internal/traffic"
)

// PeakBandwidth reproduces Figures 3-3 (peak bandwidth) and 3-4 (packet
// energy): both architectures under uniform-random traffic and the three
// skewed levels of Table 3-1, for each requested bandwidth set. The
// returned rows carry both metrics.
func PeakBandwidth(ctx context.Context, opts Options, sets []traffic.BandwidthSet) ([]Row, error) {
	patterns := []traffic.Pattern{traffic.Uniform{}, traffic.Skewed{Level: 1}, traffic.Skewed{Level: 2}, traffic.Skewed{Level: 3}}
	var cfgs []fabric.Config
	for _, set := range sets {
		cfgs = append(cfgs, pairs(set, patterns)...)
	}
	return RunMatrix(ctx, opts, cfgs)
}

// CaseStudies reproduces Figure 3-5: the four skewed-hotspot synthetic
// patterns of §3.4.2 plus the real-application GPU/memory traffic, for
// both architectures at the given bandwidth set.
func CaseStudies(ctx context.Context, opts Options, set traffic.BandwidthSet) ([]Row, error) {
	var patterns []traffic.Pattern
	for _, h := range traffic.CaseStudies() {
		patterns = append(patterns, h)
	}
	return RunMatrix(ctx, opts, pairs(set, append(patterns, traffic.RealApp{})))
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

// Figure1_1 reproduces the Figure 1-1 motivation study via the GPGPU-Sim
// substitute model.
func Figure1_1() ([]gpgpu.SpeedupPoint, error) {
	return gpgpu.Figure1_1()
}
