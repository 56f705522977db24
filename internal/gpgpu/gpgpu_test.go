package gpgpu

import (
	"math"
	"testing"
	"testing/quick"

	"hetpnoc/internal/topology"
)

// TestFigure1_1Shape checks the Figure 1-1 claims: "most of the benchmarks
// show very modest performance improvement of less than below 1%. On the
// other hand a few of the benchmarks show considerable speedup of up to
// 63%."
func TestFigure1_1Shape(t *testing.T) {
	points, err := Figure1_1()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 10 {
		t.Fatalf("only %d benchmarks profiled", len(points))
	}

	var maxPct float64
	var maxName string
	below1 := 0
	for _, p := range points {
		if p.SpeedupPct < 0 {
			t.Errorf("%s has negative speedup %.2f%%", p.Benchmark, p.SpeedupPct)
		}
		if p.SpeedupPct > maxPct {
			maxPct, maxName = p.SpeedupPct, p.Benchmark
		}
		if p.SpeedupPct < 1 {
			below1++
		}
	}
	if maxName != "BFS" {
		t.Errorf("max speedup on %s, thesis says BFS", maxName)
	}
	if math.Abs(maxPct-63) > 2 {
		t.Errorf("max speedup = %.1f%%, thesis says up to 63%%", maxPct)
	}
	if below1 < len(points)/2 {
		t.Errorf("only %d of %d benchmarks below 1%%; thesis says most", below1, len(points))
	}
}

// TestBandwidthHungryOrdering: §3.4.2 picks BFS and MUM because they "show
// significant speedup with increase in GPU-memory bandwidth, while the
// others do not".
func TestBandwidthHungryOrdering(t *testing.T) {
	points, err := Figure1_1()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]float64, len(points))
	for _, p := range points {
		byName[p.Benchmark] = p.SpeedupPct
	}
	for _, hungry := range []string{"BFS", "MUM"} {
		for _, modest := range []string{"CP", "RAY", "LPS"} {
			if byName[hungry] <= byName[modest] {
				t.Errorf("%s (%.2f%%) not above %s (%.2f%%)",
					hungry, byName[hungry], modest, byName[modest])
			}
		}
	}
}

func TestEffectiveBandwidthMonotone(t *testing.T) {
	prev := 0.0
	for _, flit := range []float64{32, 64, 128, 256, 512, 1024} {
		bw, err := EffectiveBandwidth(flit)
		if err != nil {
			t.Fatal(err)
		}
		if bw <= prev {
			t.Fatalf("bandwidth not monotone in flit size at %g B", flit)
		}
		prev = bw
	}
	if _, err := EffectiveBandwidth(0); err == nil {
		t.Fatal("zero flit size accepted")
	}
}

// TestSpeedupRooflineProperties: speedup is 1 for compute-bound kernels,
// bounded by the bandwidth ratio, and monotone in memory-boundedness.
func TestSpeedupRooflineProperties(t *testing.T) {
	base, err := EffectiveBandwidth(32)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := EffectiveBandwidth(1024)
	if err != nil {
		t.Fatal(err)
	}
	ratio := wide / base

	f := func(rawM uint16) bool {
		m := float64(rawM%1001) / 1000
		p := Profile{Name: "x", MemoryFraction: m}
		s, err := Speedup(p, 32, 1024)
		if err != nil {
			return false
		}
		if s < 1-1e-9 || s > ratio+1e-9 {
			return false
		}
		// Fully compute-bound: no speedup. Fully memory-bound: the full
		// bandwidth ratio.
		if m == 0 && math.Abs(s-1) > 1e-9 {
			return false
		}
		if m == 1 && math.Abs(s-ratio) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupValidation(t *testing.T) {
	if _, err := Speedup(Profile{MemoryFraction: 1.5}, 32, 1024); err == nil {
		t.Error("memory fraction > 1 accepted")
	}
	if _, err := Speedup(Profile{MemoryFraction: -0.1}, 32, 1024); err == nil {
		t.Error("negative memory fraction accepted")
	}
}

// TestRealAppPlacementsMatchSection3_4_2 checks the exact §3.4.2 mapping:
// "MUM, BFS, CP, RAY and LPS are mapped to 20, 4, 4, 4 and 16 cores
// respectively. These cores are ... occupying 12 clusters."
func TestRealAppPlacementsMatchSection3_4_2(t *testing.T) {
	placements, err := RealAppPlacements()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"MUM": 20, "BFS": 4, "CP": 4, "RAY": 4, "LPS": 16}
	chip := topology.Default()
	total := 0
	for _, p := range placements {
		if want[p.Profile.Name] != p.Cores {
			t.Errorf("%s mapped to %d cores, §3.4.2 says %d", p.Profile.Name, p.Cores, want[p.Profile.Name])
		}
		// traffic.RealApp maps each application onto whole clusters.
		if p.Cores%chip.ClusterSize() != 0 {
			t.Errorf("%s spans %d cores, not a whole number of clusters", p.Profile.Name, p.Cores)
		}
		total += p.Cores
	}
	if chip.Cores()-total < chip.ClusterSize() {
		t.Errorf("placements use %d of %d cores, leaving no memory cluster", total, chip.Cores())
	}
	if total != 48 {
		t.Errorf("placements cover %d cores, want 48 (12 clusters)", total)
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("BFS"); !ok {
		t.Fatal("BFS profile missing")
	}
	if _, ok := ProfileByName("NONEXISTENT"); ok {
		t.Fatal("unknown profile found")
	}
}

func TestSuiteNames(t *testing.T) {
	if CUDASDK.String() != "CUDA SDK" || Rodinia.String() != "Rodinia" {
		t.Fatal("suite names wrong")
	}
	if Suite(0).String() != "unknown" {
		t.Fatal("zero suite should be unknown")
	}
}

func TestProfileCasingConvention(t *testing.T) {
	// Figure 1-1's convention: CUDA SDK upper case, Rodinia lower case.
	for _, p := range Profiles() {
		switch p.Suite {
		case CUDASDK:
			for _, r := range p.Name {
				if r >= 'a' && r <= 'z' {
					t.Errorf("CUDA SDK benchmark %q not upper case", p.Name)
					break
				}
			}
		case Rodinia:
			for _, r := range p.Name {
				if r >= 'A' && r <= 'Z' {
					t.Errorf("Rodinia benchmark %q not lower case", p.Name)
					break
				}
			}
		}
	}
}

// TestSpeedupCurveShape: the speedup over the 32 B baseline is monotone
// in flit size with diminishing returns (concave in the bandwidth
// ratio), starting at 0% — the curve behind Figure 1-1's 1024 B
// endpoint.
func TestSpeedupCurveShape(t *testing.T) {
	p, ok := ProfileByName("BFS")
	if !ok {
		t.Fatal("no BFS profile")
	}
	type point struct{ FlitBytes, SpeedupPct float64 }
	var points []point
	for _, size := range []float64{32, 64, 128, 256, 512, 1024} {
		s, err := Speedup(p, 32, size)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, point{size, (s - 1) * 100})
	}
	if points[0].SpeedupPct != 0 {
		t.Fatalf("baseline point = %.2f%%, want 0", points[0].SpeedupPct)
	}
	for i := 1; i < len(points); i++ {
		gain := points[i].SpeedupPct - points[i-1].SpeedupPct
		if gain <= 0 {
			t.Fatalf("curve not monotone at %g B", points[i].FlitBytes)
		}
		if i > 1 {
			prevGain := points[i-1].SpeedupPct - points[i-2].SpeedupPct
			if gain > prevGain {
				t.Fatalf("no diminishing returns at %g B (%.2f > %.2f)",
					points[i].FlitBytes, gain, prevGain)
			}
		}
	}
	// The endpoint matches Figure1_1's 1024 B value.
	fig, err := Figure1_1()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fig {
		if f.Benchmark == "BFS" && math.Abs(f.SpeedupPct-points[len(points)-1].SpeedupPct) > 1e-9 {
			t.Fatalf("curve endpoint %.2f%% != figure value %.2f%%",
				points[len(points)-1].SpeedupPct, f.SpeedupPct)
		}
	}
}
