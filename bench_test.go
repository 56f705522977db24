package hetpnoc

// The benchmark harness regenerates every evaluation artifact of the
// thesis (see DESIGN.md §3 for the experiment index). Each benchmark runs
// its figure's full workload and reports the headline quantities as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the study end to end. Benchmarks use shortened runs (4,000
// cycles with an 800-cycle reset) to keep the suite fast; cmd/sweep runs
// the full Table 3-3 lengths and is the source of the numbers recorded in
// EXPERIMENTS.md.

import (
	"context"
	"testing"

	"hetpnoc/internal/experiments"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

// benchOpts are the shortened run parameters used by every simulation
// benchmark.
func benchOpts() experiments.Options {
	return experiments.Options{Cycles: 4000, WarmupCycles: 800, Seed: 1}
}

// findRow locates a matrix row by its coordinates.
func findRow(b *testing.B, rows []experiments.Row, set, pattern, arch string) experiments.Row {
	b.Helper()
	for _, r := range rows {
		if r.Set == set && r.Pattern == pattern && r.Arch == arch {
			return r
		}
	}
	b.Fatalf("no row for %s/%s/%s", set, pattern, arch)
	return experiments.Row{}
}

// BenchmarkFig1_1_FlitSizeSpeedup regenerates Figure 1-1: per-benchmark
// GPU speedups of 1024 B flits over the 32 B baseline. Reported metrics:
// the maximum speedup (the thesis observes up to 63%) and the count of
// benchmarks below 1%.
func BenchmarkFig1_1_FlitSizeSpeedup(b *testing.B) {
	b.ReportAllocs()
	var maxPct float64
	var below1 int
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure1_1()
		if err != nil {
			b.Fatal(err)
		}
		maxPct, below1 = 0, 0
		for _, p := range points {
			if p.SpeedupPct > maxPct {
				maxPct = p.SpeedupPct
			}
			if p.SpeedupPct < 1 {
				below1++
			}
		}
	}
	b.ReportMetric(maxPct, "max-speedup-%")
	b.ReportMetric(float64(below1), "benchmarks-below-1%")
}

// benchmarkPeakSet runs the Figure 3-3/3-4 matrix for one bandwidth set
// and reports the skewed-3 d-HetPNoC gain over Firefly in bandwidth and
// energy per message.
func benchmarkPeakSet(b *testing.B, set traffic.BandwidthSet) {
	b.Helper()
	b.ReportAllocs()
	var bwGain, epmDelta float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PeakBandwidth(benchOpts(), []traffic.BandwidthSet{set})
		if err != nil {
			b.Fatal(err)
		}
		ff := findRow(b, rows, set.Name, "skewed3", "firefly")
		dh := findRow(b, rows, set.Name, "skewed3", "d-hetpnoc")
		bwGain = float64((dh.PeakBandwidthGbps/ff.PeakBandwidthGbps - 1) * 100)
		epmDelta = float64((dh.EnergyPerMessagePJ/ff.EnergyPerMessagePJ - 1) * 100)
	}
	b.ReportMetric(bwGain, "dhet-bw-gain-%")
	b.ReportMetric(epmDelta, "dhet-epm-delta-%")
}

// BenchmarkFig3_3_PeakBandwidth regenerates Figures 3-3 and 3-4 (peak
// bandwidth and packet energy for uniform and skewed traffic), one
// sub-benchmark per bandwidth set.
func BenchmarkFig3_3_PeakBandwidth(b *testing.B) {
	b.ReportAllocs()
	for _, set := range traffic.BandwidthSets() {
		b.Run(set.Name, func(b *testing.B) { benchmarkPeakSet(b, set) })
	}
}

// BenchmarkFig3_4_PacketEnergy regenerates the Figure 3-4 energy matrix
// explicitly: it reports the d-HetPNoC energy-per-message saving under
// skewed 2 traffic at bandwidth set 1 (the thesis reports savings up to
// ~5%; this model's congestion term yields larger ones, see
// EXPERIMENTS.md).
func BenchmarkFig3_4_PacketEnergy(b *testing.B) {
	b.ReportAllocs()
	var saving float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PeakBandwidth(benchOpts(), []traffic.BandwidthSet{traffic.BWSet1})
		if err != nil {
			b.Fatal(err)
		}
		ff := findRow(b, rows, "BW1", "skewed2", "firefly")
		dh := findRow(b, rows, "BW1", "skewed2", "d-hetpnoc")
		saving = float64((1 - dh.EnergyPerMessagePJ/ff.EnergyPerMessagePJ) * 100)
	}
	b.ReportMetric(saving, "dhet-epm-saving-%")
}

// BenchmarkFig3_5_CaseStudies regenerates Figure 3-5: the skewed-hotspot
// synthetic patterns and the real-application GPU/memory traffic.
func BenchmarkFig3_5_CaseStudies(b *testing.B) {
	b.ReportAllocs()
	var realGain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CaseStudies(benchOpts(), traffic.BWSet1)
		if err != nil {
			b.Fatal(err)
		}
		ff := findRow(b, rows, "BW1", "realapp", "firefly")
		dh := findRow(b, rows, "BW1", "realapp", "d-hetpnoc")
		realGain = float64((dh.PeakBandwidthGbps/ff.PeakBandwidthGbps - 1) * 100)
	}
	b.ReportMetric(realGain, "realapp-bw-gain-%")
}

// BenchmarkFig3_6_Area regenerates Figure 3-6, the analytic area model.
// Reported metrics are the thesis's two headline areas at 64 data
// wavelengths (1.608 and 1.367 mm^2).
func BenchmarkFig3_6_Area(b *testing.B) {
	b.ReportAllocs()
	var dhet, ff float64
	for i := 0; i < b.N; i++ {
		points := experiments.AreaSweep(nil)
		dhet, ff = float64(points[0].DynamicMM2), float64(points[0].FireflyMM2)
	}
	b.ReportMetric(dhet*1000, "dhet-area-um2x1e3")
	b.ReportMetric(ff*1000, "firefly-area-um2x1e3")
}

// BenchmarkFig3_7_DHetScaling regenerates Figure 3-7: d-HetPNoC peak core
// bandwidth and EPM across the three bandwidth sets.
func BenchmarkFig3_7_DHetScaling(b *testing.B) {
	b.ReportAllocs()
	var perCoreBW3 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ScalingSeries(benchOpts(), fabric.DHetPNoC)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Set == "BW3" && r.Pattern == "skewed3" {
				perCoreBW3 = float64(r.PerCoreGbps)
			}
		}
	}
	b.ReportMetric(perCoreBW3, "bw3-skewed3-percore-gbps")
}

// BenchmarkFig3_8_BWvsArea regenerates Figure 3-8: peak bandwidth and area
// as the wavelength budget grows from 64 to 512 under skewed 3 traffic
// (the thesis reports +751.31% bandwidth for +70% area).
func BenchmarkFig3_8_BWvsArea(b *testing.B) {
	b.ReportAllocs()
	var bwPct, areaPct float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.WavelengthScaling(benchOpts(), fabric.DHetPNoC)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		bwPct, areaPct = last.BandwidthChangePct, last.AreaChangePct
	}
	b.ReportMetric(bwPct, "bw-increase-%")
	b.ReportMetric(areaPct, "area-increase-%")
}

// BenchmarkFig3_9_EPMvsArea regenerates Figure 3-9: energy per message and
// area across the wavelength scaling (the thesis reports -10.89% EPM).
func BenchmarkFig3_9_EPMvsArea(b *testing.B) {
	b.ReportAllocs()
	var epmPct float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.WavelengthScaling(benchOpts(), fabric.DHetPNoC)
		if err != nil {
			b.Fatal(err)
		}
		epmPct = points[len(points)-1].EPMChangePct
	}
	b.ReportMetric(epmPct, "epm-change-%")
}

// BenchmarkFig3_10_FireflyScaling regenerates Figure 3-10: the same
// scaling series for the Firefly baseline (the thesis reports +764.52%
// bandwidth and -10.85% EPM from the smallest to the largest
// configuration, +41.17% area).
func BenchmarkFig3_10_FireflyScaling(b *testing.B) {
	b.ReportAllocs()
	var bwPct, epmPct float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.WavelengthScaling(benchOpts(), fabric.Firefly)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		bwPct, epmPct = last.BandwidthChangePct, last.EPMChangePct
	}
	b.ReportMetric(bwPct, "bw-increase-%")
	b.ReportMetric(epmPct, "epm-change-%")
}

// BenchmarkTables3_1to3_5_Inputs exercises the input tables: bandwidth-set
// validation (Tables 3-1/3-3) and the energy parameter defaults (Tables
// 3-4/3-5) — these are configuration, so the benchmark measures their
// construction and checks internal consistency.
func BenchmarkTables3_1to3_5_Inputs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, set := range traffic.BandwidthSets() {
			if err := set.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation_WaveguideRestriction runs the thesis's Chapter 4
// proposal study: per-router waveguide restriction trades area for
// bandwidth. Reported metrics: the restricted variant's bandwidth cost and
// area saving relative to unrestricted d-HetPNoC.
func BenchmarkAblation_WaveguideRestriction(b *testing.B) {
	b.ReportAllocs()
	var bwCost, areaSaving float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WaveguideRestrictionAblation(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		byVariant := make(map[string]experiments.AblationRow, len(rows))
		for _, r := range rows {
			byVariant[r.Variant] = r
		}
		full, restricted := byVariant["unrestricted"], byVariant["2-waveguides"]
		bwCost = float64((1 - restricted.PeakBandwidthGbps/full.PeakBandwidthGbps) * 100)
		areaSaving = float64((1 - restricted.AreaMM2/full.AreaMM2) * 100)
	}
	b.ReportMetric(bwCost, "bw-cost-%")
	b.ReportMetric(areaSaving, "area-saving-%")
}

// BenchmarkArchitectureComparison runs all three modeled architectures
// (Firefly, d-HetPNoC, and the related-work torus) on skewed 2 traffic.
func BenchmarkArchitectureComparison(b *testing.B) {
	b.ReportAllocs()
	var dhetGain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ArchitectureComparison(context.Background(), benchOpts(), traffic.BWSet1, traffic.Skewed{Level: 2})
		if err != nil {
			b.Fatal(err)
		}
		byVariant := make(map[string]experiments.AblationRow, len(rows))
		for _, r := range rows {
			byVariant[r.Variant] = r
		}
		dhetGain = float64((byVariant["d-hetpnoc"].PeakBandwidthGbps/byVariant["firefly"].PeakBandwidthGbps - 1) * 100)
	}
	b.ReportMetric(dhetGain, "dhet-over-firefly-%")
}
