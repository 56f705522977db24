package gpgpu

import (
	"fmt"
	"math"
)

// The GPU-memory interconnect of the Figure 1-1 study: a 700 MHz link
// whose flit size is varied from 32 B to 1024 B. Each flit carries a
// fixed header (routing, sequencing, ECC), so the usable fraction of the
// raw bandwidth grows with flit size.
const (
	// linkClockMHz is the interconnect clock.
	linkClockMHz = 700
	// headerBytes is the per-flit protocol overhead amortized by larger
	// flits.
	headerBytes = 32
	// rawBytesPerCycle is the physical channel width.
	rawBytesPerCycle = 32
)

// EffectiveBandwidth returns the usable bandwidth in GB/s of the Figure
// 1-1 link for a given flit size in bytes.
func EffectiveBandwidth(flitBytes float64) (float64, error) {
	if flitBytes <= 0 {
		return 0, fmt.Errorf("gpgpu: flit size must be positive, got %g", flitBytes)
	}
	raw := rawBytesPerCycle * linkClockMHz * 1e6 / 1e9
	useful := flitBytes / (flitBytes + headerBytes)
	return raw * useful, nil
}

// Speedup returns a benchmark's speedup when the flit size grows from
// baselineBytes to flitBytes, using the roofline split of the profile:
//
//	T(flit) = (1 - m) + m * BW(baseline)/BW(flit)
//	speedup = T(baseline) / T(flit) = 1 / ((1-m) + m/r)
//
// where m is the memory-bound runtime fraction and r the bandwidth ratio.
func Speedup(p Profile, baselineBytes, flitBytes float64) (float64, error) {
	if p.MemoryFraction < 0 || p.MemoryFraction > 1 {
		return 0, fmt.Errorf("gpgpu: %s: memory fraction %g outside [0,1]", p.Name, p.MemoryFraction)
	}
	base, err := EffectiveBandwidth(baselineBytes)
	if err != nil {
		return 0, err
	}
	wide, err := EffectiveBandwidth(flitBytes)
	if err != nil {
		return 0, err
	}
	ratio := wide / base
	t := (1 - p.MemoryFraction) + p.MemoryFraction/ratio
	if t <= 0 || math.IsNaN(t) {
		return 0, fmt.Errorf("gpgpu: %s: degenerate runtime model", p.Name)
	}
	return 1 / t, nil
}

// SpeedupPoint is one bar of Figure 1-1.
type SpeedupPoint struct {
	Benchmark      string
	Suite          Suite
	KernelLaunches int
	// SpeedupPct is the percentage improvement of the 1024 B flit over
	// the 32 B baseline.
	SpeedupPct float64
}

// Figure1_1 evaluates the speedup of a 1024 B flit size over the 32 B
// baseline for every profiled benchmark, reproducing Figure 1-1.
func Figure1_1() ([]SpeedupPoint, error) {
	profiles := Profiles()
	points := make([]SpeedupPoint, 0, len(profiles))
	for _, p := range profiles {
		s, err := Speedup(p, 32, 1024)
		if err != nil {
			return nil, err
		}
		points = append(points, SpeedupPoint{
			Benchmark:      p.Name,
			Suite:          p.Suite,
			KernelLaunches: p.KernelLaunches,
			SpeedupPct:     (s - 1) * 100,
		})
	}
	return points, nil
}

// Placement maps an application onto GPU clusters for the real-application
// traffic scenario of §3.4.2.
type Placement struct {
	Profile Profile
	// Cores is the number of GPU cores running the application.
	Cores int
}

// RealAppPlacements returns the §3.4.2 mapping: "parallel GPU applications
// like MUM, BFS, CP, RAY and LPS are mapped to 20, 4, 4, 4 and 16 cores
// respectively", occupying 12 clusters, with the remaining 4 clusters
// holding memory.
func RealAppPlacements() ([]Placement, error) {
	spec := []struct {
		name  string
		cores int
	}{
		{"MUM", 20}, {"BFS", 4}, {"CP", 4}, {"RAY", 4}, {"LPS", 16},
	}
	placements := make([]Placement, 0, len(spec))
	for _, s := range spec {
		p, ok := ProfileByName(s.name)
		if !ok {
			return nil, fmt.Errorf("gpgpu: no profile for %s", s.name)
		}
		placements = append(placements, Placement{Profile: p, Cores: s.cores})
	}
	return placements, nil
}
