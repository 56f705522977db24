package experiments

import (
	"context"
	"testing"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

func TestReservationPipeliningAblationDirection(t *testing.T) {
	rows, err := ReservationPipeliningAblation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	pipelined, serialized := rows[0], rows[1]
	if pipelined.Variant != "pipelined" || serialized.Variant != "serialized" {
		t.Fatalf("unexpected variants %q, %q", pipelined.Variant, serialized.Variant)
	}
	if pipelined.PeakBandwidthGbps <= serialized.PeakBandwidthGbps {
		t.Fatalf("pipelined reservations (%.1f Gb/s) not faster than serialized (%.1f)",
			pipelined.PeakBandwidthGbps, serialized.PeakBandwidthGbps)
	}
	if pipelined.AvgLatencyCycles >= serialized.AvgLatencyCycles {
		t.Fatalf("pipelined latency (%.1f) not below serialized (%.1f)",
			pipelined.AvgLatencyCycles, serialized.AvgLatencyCycles)
	}
}

func TestAcquisitionChunkAblationAvoidsStarvation(t *testing.T) {
	rows, err := AcquisitionChunkAblation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byVariant := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	// The default chunk (8) must beat unlimited acquisition (64), which
	// lets the first token holders starve the rest.
	if byVariant["chunk-8"].PeakBandwidthGbps <= byVariant["chunk-64"].PeakBandwidthGbps {
		t.Fatalf("chunked acquisition (%.1f) not above greedy (%.1f)",
			byVariant["chunk-8"].PeakBandwidthGbps, byVariant["chunk-64"].PeakBandwidthGbps)
	}
}

func TestReservedMinimumAblationTradeoff(t *testing.T) {
	rows, err := ReservedMinimumAblation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A larger reserve shrinks the dynamically shareable pool, so peak
	// bandwidth under skew must not increase.
	for i := 1; i < len(rows); i++ {
		if rows[i].PeakBandwidthGbps > rows[i-1].PeakBandwidthGbps+1 {
			t.Fatalf("reserve %s (%.1f Gb/s) above %s (%.1f)",
				rows[i].Variant, rows[i].PeakBandwidthGbps,
				rows[i-1].Variant, rows[i-1].PeakBandwidthGbps)
		}
	}
}

func TestWaveguideRestrictionAblationTradesAreaForBandwidth(t *testing.T) {
	rows, err := WaveguideRestrictionAblation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byVariant := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	unrestricted := byVariant["unrestricted"]
	restricted := byVariant["2-waveguides"]
	if restricted.AreaMM2 >= unrestricted.AreaMM2 {
		t.Fatalf("restriction did not shrink area: %.3f vs %.3f",
			restricted.AreaMM2, unrestricted.AreaMM2)
	}
	if restricted.PeakBandwidthGbps > unrestricted.PeakBandwidthGbps {
		t.Fatalf("restriction increased bandwidth: %.1f vs %.1f",
			restricted.PeakBandwidthGbps, unrestricted.PeakBandwidthGbps)
	}
	// The thesis's pitch: a modest bandwidth cost for the area saving.
	if restricted.PeakBandwidthGbps < 0.85*unrestricted.PeakBandwidthGbps {
		t.Fatalf("restriction cost %.1f%% bandwidth, should be modest",
			(1-restricted.PeakBandwidthGbps/unrestricted.PeakBandwidthGbps)*100)
	}
}

func TestIntraClusterAblationRuns(t *testing.T) {
	rows, err := IntraClusterAblation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PeakBandwidthGbps <= 0 {
			t.Fatalf("%s delivered nothing", r.Variant)
		}
	}
}

func TestArchitectureComparisonRuns(t *testing.T) {
	rows, err := ArchitectureComparison(context.Background(), quickOpts(), traffic.BWSet1, traffic.Skewed{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 architectures", len(rows))
	}
	byVariant := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		if r.PeakBandwidthGbps <= 0 {
			t.Fatalf("%s delivered nothing", r.Variant)
		}
		byVariant[r.Variant] = r
	}
	// The headline claim must survive the three-way comparison too.
	if byVariant["d-hetpnoc"].PeakBandwidthGbps <= byVariant["firefly"].PeakBandwidthGbps {
		t.Fatal("d-HetPNoC not above Firefly in the comparison")
	}
}

func TestLoadLatencyCurveShape(t *testing.T) {
	points, err := LoadLatencyCurve(context.Background(), quickOpts(), fabric.DHetPNoC, traffic.Uniform{},
		traffic.BWSet1, []float64{0.4, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	light, saturated := points[0], points[1]
	// Latency must rise toward saturation; delivered bandwidth must grow
	// with offered load below saturation.
	if saturated.AvgLatencyCycles <= light.AvgLatencyCycles {
		t.Fatalf("latency did not rise with load: %.1f -> %.1f",
			light.AvgLatencyCycles, saturated.AvgLatencyCycles)
	}
	if saturated.DeliveredGbps <= light.DeliveredGbps {
		t.Fatalf("throughput did not rise with load: %.1f -> %.1f",
			light.DeliveredGbps, saturated.DeliveredGbps)
	}
}

func TestAllocationPolicyAblation(t *testing.T) {
	rows, err := AllocationPolicyAblation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byVariant := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		if r.PeakBandwidthGbps <= 0 {
			t.Fatalf("%s delivered nothing", r.Variant)
		}
		byVariant[r.Variant] = r
	}
	// With the default chunking the proportional policy must be at least
	// competitive (it removes first-come starvation at a small
	// quantization cost).
	greedy := byVariant["greedy-chunked"].PeakBandwidthGbps
	prop := byVariant["proportional-chunked"].PeakBandwidthGbps
	if prop < 0.9*greedy {
		t.Fatalf("proportional policy lost badly: %.1f vs %.1f Gb/s", prop, greedy)
	}
	t.Logf("chunked: greedy %.1f Gb/s, proportional %.1f Gb/s", greedy, prop)
}

func TestBurstinessAblationDegradesLatency(t *testing.T) {
	rows, err := BurstinessAblation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	byVariant := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	// Burstier traffic at the same average rate must not improve latency.
	smooth := byVariant["d-hetpnoc-x1"].AvgLatencyCycles
	bursty := byVariant["d-hetpnoc-x16"].AvgLatencyCycles
	if bursty < smooth {
		t.Fatalf("x16 bursty latency %.1f below smooth %.1f", bursty, smooth)
	}
	t.Logf("d-hetpnoc latency: smooth %.1f, x16 bursty %.1f cycles", smooth, bursty)
}

// TestProportionalFixesUnboundedGreedyStarvation: without the per-visit
// acquisition chunk, the greedy policy lets the first token holders drain
// the pool and starve later clusters; the proportional policy's share
// bound prevents that, winning both service fairness and bandwidth in the
// unbounded configuration.
func TestProportionalFixesUnboundedGreedyStarvation(t *testing.T) {
	rows, err := AllocationPolicyAblation(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byVariant := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		if r.FairnessJain <= 0 || r.FairnessJain > 1 {
			t.Fatalf("%s fairness %g outside (0,1]", r.Variant, r.FairnessJain)
		}
		byVariant[r.Variant] = r
	}
	greedy := byVariant["greedy-unbounded"]
	prop := byVariant["proportional-unbounded"]
	t.Logf("unbounded: greedy %.1f Gb/s (fairness %.3f), proportional %.1f Gb/s (fairness %.3f)",
		greedy.PeakBandwidthGbps, greedy.FairnessJain, prop.PeakBandwidthGbps, prop.FairnessJain)
	if prop.FairnessJain <= greedy.FairnessJain {
		t.Fatalf("proportional fairness %.3f not above unbounded greedy %.3f",
			prop.FairnessJain, greedy.FairnessJain)
	}
	if prop.PeakBandwidthGbps <= greedy.PeakBandwidthGbps {
		t.Fatalf("proportional bandwidth %.1f not above unbounded greedy %.1f",
			prop.PeakBandwidthGbps, greedy.PeakBandwidthGbps)
	}
}
