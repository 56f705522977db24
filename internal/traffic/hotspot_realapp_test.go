package traffic

import (
	"math"
	"testing"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

func TestCaseStudiesConfiguration(t *testing.T) {
	cases := CaseStudies()
	if len(cases) != 4 {
		t.Fatalf("CaseStudies() returned %d patterns, §3.4.2 defines 4", len(cases))
	}
	// §3.4.2: hotspot1/2 send 10% to the hotspot with skewed 2/3
	// remainders; hotspot3/4 send 20%.
	wants := []struct {
		frac float64
		base int
	}{
		{0.10, 2}, {0.10, 3}, {0.20, 2}, {0.20, 3},
	}
	for i, c := range cases {
		if c.HotFraction != wants[i].frac || c.BaseLevel != wants[i].base {
			t.Errorf("case %d = {%.2f, skewed%d}, want {%.2f, skewed%d}",
				i+1, c.HotFraction, c.BaseLevel, wants[i].frac, wants[i].base)
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	topo := topology.Default()
	h := SkewedHotspot{Index: 3, HotFraction: 0.20, BaseLevel: 2}
	a, err := h.Assign(BWSet1)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(4)
	const draws = 20000
	hot := 0
	// Sample destinations from a non-hotspot core and measure the share
	// landing in the hotspot cluster (cluster 0).
	src := topology.CoreID(20)
	for i := 0; i < draws; i++ {
		dst := a.Cores[src].PickDest(rng)
		if topo.ClusterOf(dst) == 0 {
			hot++
		}
	}
	share := float64(hot) / draws
	// 20% explicit hotspot traffic plus the base pattern's ~1/15 uniform
	// share of the remainder.
	want := 0.20 + 0.80/15
	if math.Abs(share-want) > 0.02 {
		t.Fatalf("hotspot share = %.3f, want ~%.3f", share, want)
	}
}

func TestHotspotClusterKeepsBaseTraffic(t *testing.T) {
	topo := topology.Default()
	h := SkewedHotspot{Index: 1, HotFraction: 0.10, BaseLevel: 2}
	a, err := h.Assign(BWSet1)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(5)
	// Cores inside the hotspot cluster must never send to themselves.
	for i := 0; i < 1000; i++ {
		dst := a.Cores[0].PickDest(rng)
		if topo.ClusterOf(dst) == 0 {
			t.Fatalf("hotspot-cluster core sent to its own cluster (dst %d)", dst)
		}
	}
}

func TestHotspotValidation(t *testing.T) {
	if _, err := (SkewedHotspot{HotFraction: 1.2, BaseLevel: 2}).Assign(BWSet1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := (SkewedHotspot{HotFraction: 0.1, BaseLevel: 9}).Assign(BWSet1); err == nil {
		t.Error("bad base level accepted")
	}
}

func TestRealAppPlacement(t *testing.T) {
	topo := topology.Default()
	a, err := RealApp{}.Assign(BWSet1)
	if err != nil {
		t.Fatal(err)
	}
	// §3.4.2: 48 GPU cores in 12 clusters, 4 memory clusters.
	const firstMem = 12
	rng := sim.NewRNG(2)

	for c, p := range a.Cores {
		cl := int(topo.ClusterOf(topology.CoreID(c)))
		if p.RateGbps <= 0 || p.DemandGbps <= 0 {
			t.Fatalf("core %d has no workload", c)
		}
		for i := 0; i < 20; i++ {
			dst := a.Cores[c].PickDest(rng)
			dstCl := int(topo.ClusterOf(dst))
			if cl < firstMem && dstCl < firstMem {
				t.Fatalf("GPU core %d sent to GPU cluster %d", c, dstCl)
			}
			if cl >= firstMem && dstCl >= firstMem {
				t.Fatalf("memory core %d sent to memory cluster %d", c, dstCl)
			}
		}
	}
}

func TestRealAppDemandRestriction(t *testing.T) {
	topo := topology.Default()
	a, err := RealApp{}.Assign(BWSet1)
	if err != nil {
		t.Fatal(err)
	}
	// GPU cores only demand bandwidth toward the memory clusters.
	table := make([]int, topo.Clusters())
	a.Cores[0].DemandTable(table, topo.ClusterOf(0))
	for d := 0; d < 12; d++ {
		if table[d] != 0 {
			t.Fatalf("GPU core demands %d wavelengths toward GPU cluster %d", table[d], d)
		}
	}
	nonZero := 0
	for d := 12; d < 16; d++ {
		if table[d] > 0 {
			nonZero++
		}
	}
	if nonZero != 4 {
		t.Fatalf("GPU core demands toward %d memory clusters, want 4", nonZero)
	}
}

func TestRealAppResponseTrafficBalancesRequests(t *testing.T) {
	topo := topology.Default()
	a, err := RealApp{}.Assign(BWSet1)
	if err != nil {
		t.Fatal(err)
	}
	var gpu, mem float64
	for c, p := range a.Cores {
		if int(topo.ClusterOf(topology.CoreID(c))) < 12 {
			gpu += p.RateGbps
		} else {
			mem += p.RateGbps
		}
	}
	// Response traffic mirrors the aggregate request load, but each
	// memory cluster is capped at the set's top bandwidth class — the
	// photonic provisioning cannot express more (§3.4.1).
	want := math.Min(gpu, 4*BWSet1.ClassGbps[0])
	if math.Abs(mem-want) > 1e-6 {
		t.Fatalf("response traffic %.2f, want %.2f (requests %.2f capped at 4x%.0f)",
			mem, want, gpu, BWSet1.ClassGbps[0])
	}
}

func TestRealAppMemoryResponsesWeightedByDemand(t *testing.T) {
	topo := topology.Default()
	a, err := RealApp{}.Assign(BWSet1)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(9)
	memCore := topo.CoreAt(13, 0)
	counts := make(map[topology.ClusterID]int)
	const draws = 30000
	for i := 0; i < draws; i++ {
		counts[topo.ClusterOf(a.Cores[memCore].PickDest(rng))]++
	}
	// MUM clusters (high demand) must receive more responses than CP/RAY
	// clusters (low demand). Cluster 0 runs MUM, cluster 6 runs CP.
	if counts[0] <= counts[6] {
		t.Fatalf("responses not demand-weighted: MUM cluster got %d, CP cluster got %d",
			counts[0], counts[6])
	}
}

func TestPatternNames(t *testing.T) {
	tests := []struct {
		p    Pattern
		want string
	}{
		{Uniform{}, "uniform"},
		{Skewed{Level: 2}, "skewed2"},
		{SkewedHotspot{Index: 4}, "skewed-hotspot4"},
		{RealApp{}, "realapp"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}
