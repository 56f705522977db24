package experiments

import (
	"context"
	"fmt"

	"hetpnoc/internal/area"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/gpgpu"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

// standardPatterns are the traffic patterns of Figures 3-3/3-4/3-7/3-10:
// uniform-random plus the three skewed levels of Table 3-1.
func standardPatterns() []traffic.Pattern {
	return []traffic.Pattern{
		traffic.Uniform{},
		traffic.Skewed{Level: 1},
		traffic.Skewed{Level: 2},
		traffic.Skewed{Level: 3},
	}
}

// PeakBandwidth reproduces Figures 3-3 (peak bandwidth) and 3-4 (packet
// energy): both architectures under uniform and skewed traffic, for each
// requested bandwidth set. The returned rows carry both metrics.
func PeakBandwidth(ctx context.Context, opts Options, sets []traffic.BandwidthSet) ([]Row, error) {
	var points []Point
	for _, set := range sets {
		for _, p := range standardPatterns() {
			for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
				points = append(points, Point{Set: set, Pattern: p, Arch: arch})
			}
		}
	}
	return RunMatrix(ctx, opts, points)
}

// CaseStudies reproduces Figure 3-5: the four skewed-hotspot synthetic
// patterns of §3.4.2 plus the real-application GPU/memory traffic, for
// both architectures at the given bandwidth set.
func CaseStudies(ctx context.Context, opts Options, set traffic.BandwidthSet) ([]Row, error) {
	var patterns []traffic.Pattern
	for _, h := range traffic.CaseStudies() {
		patterns = append(patterns, h)
	}
	patterns = append(patterns, traffic.RealApp{})

	var points []Point
	for _, p := range patterns {
		for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
			points = append(points, Point{Set: set, Pattern: p, Arch: arch})
		}
	}
	return RunMatrix(ctx, opts, points)
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

// ScalingRow is one point of the Figures 3-7/3-10 series: one
// architecture, pattern and bandwidth set, annotated with the area model.
type ScalingRow struct {
	Row
	TotalWavelengths int                    `json:"totalWavelengths"`
	AreaMM2          units.SquareMillimeter `json:"areaMM2"`
}

// ScalingSeries reproduces Figure 3-7 (arch = DHetPNoC) and Figure 3-10
// (arch = Firefly): peak core bandwidth and energy per message across the
// three bandwidth sets for uniform and skewed traffic, with the analytic
// area attached.
func ScalingSeries(ctx context.Context, opts Options, arch fabric.Arch) ([]ScalingRow, error) {
	var points []Point
	for _, set := range traffic.BandwidthSets() {
		for _, p := range standardPatterns() {
			points = append(points, Point{Set: set, Pattern: p, Arch: arch})
		}
	}
	rows, err := RunMatrix(ctx, opts, points)
	if err != nil {
		return nil, err
	}
	out := make([]ScalingRow, len(rows))
	for i, r := range rows {
		set, err := setByName(r.Set)
		if err != nil {
			return nil, err
		}
		cfg := area.DefaultConfig(set.TotalWavelengths)
		a := cfg.DynamicAreaMM2()
		if arch == fabric.Firefly {
			a = cfg.FireflyAreaMM2()
		}
		out[i] = ScalingRow{Row: r, TotalWavelengths: set.TotalWavelengths, AreaMM2: a}
	}
	return out, nil
}

// WavelengthPoint is one point of the Figures 3-8/3-9 series.
type WavelengthPoint struct {
	TotalWavelengths   int                    `json:"totalWavelengths"`
	PeakBandwidthGbps  units.Gbps             `json:"peakBandwidthGbps"`
	EnergyPerMessagePJ units.Picojoule        `json:"energyPerMessagePJ"`
	AreaMM2            units.SquareMillimeter `json:"areaMM2"`

	// Percentage changes relative to the first point, matching the
	// thesis's headline summary (+751.31% bandwidth, +70% area, -10.89%
	// energy per message for d-HetPNoC from 64 to 512 wavelengths).
	BandwidthChangePct float64 `json:"bandwidthChangePct"`
	EPMChangePct       float64 `json:"epmChangePct"`
	AreaChangePct      float64 `json:"areaChangePct"`
}

// WavelengthScaling reproduces Figures 3-8 and 3-9: the effect of growing
// the total wavelength count (64 -> 256 -> 512) on peak bandwidth, energy
// per message and area for the given architecture under Skewed 3 traffic.
func WavelengthScaling(ctx context.Context, opts Options, arch fabric.Arch) ([]WavelengthPoint, error) {
	var points []Point
	for _, set := range traffic.BandwidthSets() {
		points = append(points, Point{Set: set, Pattern: traffic.Skewed{Level: 3}, Arch: arch})
	}
	rows, err := RunMatrix(ctx, opts, points)
	if err != nil {
		return nil, err
	}
	out := make([]WavelengthPoint, len(rows))
	for i, r := range rows {
		set, err := setByName(r.Set)
		if err != nil {
			return nil, err
		}
		cfg := area.DefaultConfig(set.TotalWavelengths)
		a := cfg.DynamicAreaMM2()
		if arch == fabric.Firefly {
			a = cfg.FireflyAreaMM2()
		}
		out[i] = WavelengthPoint{
			TotalWavelengths:   set.TotalWavelengths,
			PeakBandwidthGbps:  r.PeakBandwidthGbps,
			EnergyPerMessagePJ: r.EnergyPerMessagePJ,
			AreaMM2:            a,
		}
	}
	base := out[0]
	for i := range out {
		out[i].BandwidthChangePct = float64((out[i].PeakBandwidthGbps/base.PeakBandwidthGbps - 1) * 100)
		out[i].EPMChangePct = float64((out[i].EnergyPerMessagePJ/base.EnergyPerMessagePJ - 1) * 100)
		out[i].AreaChangePct = float64((out[i].AreaMM2/base.AreaMM2 - 1) * 100)
	}
	return out, nil
}

// setByName resolves a bandwidth set from its name.
func setByName(name string) (traffic.BandwidthSet, error) {
	for _, s := range traffic.BandwidthSets() {
		if s.Name == name {
			return s, nil
		}
	}
	return traffic.BandwidthSet{}, fmt.Errorf("experiments: unknown bandwidth set %q", name)
}
