package traffic

import (
	"math"
	"testing"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

func TestWavelengthsFor(t *testing.T) {
	tests := []struct {
		gbps float64
		want int
	}{
		{0, 0}, {-5, 0},
		{12.5, 1}, {12.6, 2}, {25, 2}, {50, 4},
		{100, 8}, {200, 16}, {400, 32}, {800, 64},
		{1, 1}, {13, 2},
	}
	for _, tt := range tests {
		if got := WavelengthsFor(tt.gbps); got != tt.want {
			t.Errorf("WavelengthsFor(%g) = %d, want %d", tt.gbps, got, tt.want)
		}
	}
}

// TestBandwidthSetsMatchTable3_3 checks the three provisioning points
// against Table 3-3's photonic configuration rows.
func TestBandwidthSetsMatchTable3_3(t *testing.T) {
	tests := []struct {
		set            BandwidthSet
		fireflyPerChan int
		dhetMax        int
		flits, bits    int
	}{
		{BWSet1, 4, 8, 64, 32},
		{BWSet2, 16, 32, 16, 128},
		{BWSet3, 32, 64, 8, 256},
	}
	for _, tt := range tests {
		// The invariants the builders rely on without checking them.
		for i, g := range tt.set.ClassGbps {
			if g <= 0 || i > 0 && g >= tt.set.ClassGbps[i-1] {
				t.Errorf("%s classes %v are not positive and strictly decreasing", tt.set.Name, tt.set.ClassGbps)
			}
		}
		if need := WavelengthsFor(tt.set.ClassGbps[0]); need > tt.set.TotalWavelengths {
			t.Errorf("%s top class needs %d wavelengths, budget is %d", tt.set.Name, need, tt.set.TotalWavelengths)
		}
		if tt.set.TotalWavelengths%chip.Clusters() != 0 {
			t.Errorf("%s: %d wavelengths do not divide over %d Firefly channels", tt.set.Name, tt.set.TotalWavelengths, chip.Clusters())
		}
		if tt.set.Format.Flits > 64 { // a VC buffer is 64 flits deep
			t.Errorf("%s: a %d-flit packet does not fit a 64-flit VC buffer", tt.set.Name, tt.set.Format.Flits)
		}
		if got := tt.set.TotalWavelengths / 16; got != tt.fireflyPerChan {
			t.Errorf("%s Firefly channel = %d wavelengths, Table 3-3 says %d", tt.set.Name, got, tt.fireflyPerChan)
		}
		if got := tt.set.MaxChannelWavelengths(); got != tt.dhetMax {
			t.Errorf("%s d-Het max channel = %d wavelengths, Table 3-3 says %d", tt.set.Name, got, tt.dhetMax)
		}
		if tt.set.Format.Flits != tt.flits || tt.set.Format.FlitBits != tt.bits {
			t.Errorf("%s packet format %dx%d, Table 3-3 says %dx%d",
				tt.set.Name, tt.set.Format.Flits, tt.set.Format.FlitBits, tt.flits, tt.bits)
		}
	}
}

func TestUniformAssignment(t *testing.T) {
	a, err := Uniform{}.Assign(BWSet1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cores) != 64 {
		t.Fatalf("assignment covers %d cores", len(a.Cores))
	}
	// 64 wavelengths x 12.5 Gb/s / 64 cores = 12.5 Gb/s per core.
	for c, p := range a.Cores {
		if p.RateGbps != 12.5 {
			t.Fatalf("core %d rate = %g, want 12.5", c, p.RateGbps)
		}
		if p.DemandGbps != 50 {
			t.Fatalf("core %d demand = %g, want 50 (cluster share)", c, p.DemandGbps)
		}
	}
	if got := totalOffered(a); got != 800 {
		t.Fatalf("total offered = %g, want 800", got)
	}
}

func TestUniformDestinationsAreForeign(t *testing.T) {
	topo := topology.Default()
	a, err := Uniform{}.Assign(BWSet1)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(2)
	for c := range a.Cores {
		src := topo.ClusterOf(topology.CoreID(c))
		for i := 0; i < 50; i++ {
			dst := a.Cores[c].PickDest(rng)
			if topo.ClusterOf(dst) == src {
				t.Fatalf("core %d picked destination %d in its own cluster", c, dst)
			}
		}
	}
}

func TestApportionmentMatchesFrequencies(t *testing.T) {
	for level := 1; level <= 3; level++ {
		a, err := Skewed{Level: level}.Assign(BWSet1)
		if err != nil {
			t.Fatal(err)
		}
		freq, _ := SkewFrequencies(level)

		// Group offered traffic by bandwidth class and compare the
		// shares with Table 3-1's frequencies. Apportionment over 16
		// clusters quantizes, so allow a generous tolerance.
		total := totalOffered(a)
		for class, classRate := range BWSet1.ClassGbps {
			var offered float64
			for _, p := range a.Cores {
				if p.DemandGbps == classRate {
					offered += p.RateGbps
				}
			}
			share := offered / total
			if math.Abs(share-freq[class]) > 0.12 {
				t.Errorf("skewed%d class %g Gb/s: traffic share %.3f, Table 3-1 says %.3f",
					level, classRate, share, freq[class])
			}
		}
	}
}

func TestApportionmentCoversAllClusters(t *testing.T) {
	topo := topology.Default()
	for level := 1; level <= 3; level++ {
		a, err := Skewed{Level: level}.Assign(BWSet1)
		if err != nil {
			t.Fatal(err)
		}
		// Every cluster runs exactly one application class, all four
		// cores sharing it.
		for cl := 0; cl < topo.Clusters(); cl++ {
			cores := topo.CoresOf(topology.ClusterID(cl))
			demand := a.Cores[cores[0]].DemandGbps
			if demand <= 0 {
				t.Fatalf("skewed%d cluster %d has no application", level, cl)
			}
			for _, c := range cores[1:] {
				if a.Cores[c].DemandGbps != demand {
					t.Fatalf("skewed%d cluster %d mixes classes", level, cl)
				}
			}
		}
	}
}

func TestApportionExact(t *testing.T) {
	freq3, _ := SkewFrequencies(3)
	counts, err := apportionClusters(16, freq3, BWSet1.ClassGbps)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range counts {
		sum += n
	}
	if sum != 16 {
		t.Fatalf("apportioned %d clusters, want 16", sum)
	}
	// With weights f/r = {.009, .001, .001, .002} the largest-remainder
	// split over 16 clusters is 11/1/1/3.
	want := [4]int{11, 1, 1, 3}
	if counts != want {
		t.Fatalf("skewed3 apportionment = %v, want %v", counts, want)
	}
}

func TestSkewedUnknownLevel(t *testing.T) {
	if _, err := (Skewed{Level: 4}).Assign(BWSet1); err == nil {
		t.Fatal("unknown skew level accepted")
	}
}

func TestDemandTable(t *testing.T) {
	topo := topology.Default()
	p := CoreProfile{RateGbps: 25, DemandGbps: 100}
	table := make([]int, topo.Clusters())
	p.DemandTable(table, 3)
	for d, n := range table {
		if d == 3 {
			if n != 0 {
				t.Fatal("demand toward own cluster must be 0")
			}
			continue
		}
		if n != 8 { // 100 Gb/s -> 8 wavelengths
			t.Fatalf("demand toward cluster %d = %d, want 8", d, n)
		}
	}

	// Restricted destinations (real-application style), filled over the
	// row above: every other entry is cleared.
	p.DemandDests = []topology.ClusterID{5, 7}
	p.DemandTable(table, 3)
	for d, n := range table {
		want := 0
		if d == 5 || d == 7 {
			want = 8
		}
		if n != want {
			t.Fatalf("restricted demand toward %d = %d, want %d", d, n, want)
		}
	}
}

func TestCustomPatternValidation(t *testing.T) {
	_, err := Custom{Cores: make([]CustomCore, 3)}.Assign(BWSet1)
	if err == nil {
		t.Fatal("short custom workload accepted")
	}
}

// totalOffered is the aggregate offered load of a, in Gb/s.
func totalOffered(a Assignment) float64 {
	var sum float64
	for _, c := range a.Cores {
		sum += c.RateGbps
	}
	return sum
}
