package experiments

import (
	"context"
	"testing"

	"hetpnoc/internal/area"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

// quickOpts shrinks the runs so the whole package tests in seconds.
func quickOpts() Options {
	return Options{Cycles: 2500, WarmupCycles: 500, Seed: 1}
}

func TestRunMatrixOrderAndFields(t *testing.T) {
	cfgs := []fabric.Config{
		{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly},
		{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: fabric.DHetPNoC},
	}
	rows, err := RunMatrix(context.Background(), quickOpts(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Arch != "firefly" || rows[0].Pattern != "uniform" || rows[0].Set != "BW1" {
		t.Fatalf("row 0 out of order: %+v", rows[0])
	}
	if rows[1].Arch != "d-hetpnoc" || rows[1].Pattern != "skewed2" {
		t.Fatalf("row 1 out of order: %+v", rows[1])
	}
	for _, r := range rows {
		if r.PeakBandwidthGbps <= 0 || r.EnergyPerMessagePJ <= 0 || r.PacketsDelivered <= 0 {
			t.Fatalf("row has empty metrics: %+v", r)
		}
		if r.AtLoad != 1.0 || r.TotalWavelengths != traffic.BWSet1.TotalWavelengths {
			t.Fatalf("a config's defaults are load 1.0 and BW1's wavelengths, got %+v", r)
		}
	}
}

// TestRunMatrixLoadSweepKeepsBest: a load sweep is one config per load,
// each row reports its config's load, and the peak of a uniform sweep is
// at the highest load, since delivered bandwidth grows with it.
func TestRunMatrixLoadSweepKeepsBest(t *testing.T) {
	var cfgs []fabric.Config
	for _, load := range []float64{0.5, 1.0} {
		cfgs = append(cfgs, fabric.Config{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly, LoadScale: load})
	}
	rows, err := RunMatrix(context.Background(), quickOpts(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].AtLoad != 0.5 || rows[1].AtLoad != 1.0 {
		t.Fatalf("rows at loads %g, %g, want 0.5, 1.0", rows[0].AtLoad, rows[1].AtLoad)
	}
	if rows[1].PeakBandwidthGbps <= rows[0].PeakBandwidthGbps {
		t.Fatalf("peak at load 0.5 (%.1f Gb/s), not 1.0 (%.1f)", rows[0].PeakBandwidthGbps, rows[1].PeakBandwidthGbps)
	}
}

func TestPeakBandwidthMatrixShape(t *testing.T) {
	rows, err := RunMatrix(context.Background(), quickOpts(), PeakBandwidth([]traffic.BandwidthSet{traffic.BWSet1}))
	if err != nil {
		t.Fatal(err)
	}
	// 4 patterns x 2 architectures.
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
}

func TestCaseStudiesShape(t *testing.T) {
	rows, err := RunMatrix(context.Background(), quickOpts(), CaseStudies(traffic.BWSet1))
	if err != nil {
		t.Fatal(err)
	}
	// 4 hotspot cases + realapp, x 2 architectures.
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Pattern] = true
	}
	for _, want := range []string{"skewed-hotspot1", "skewed-hotspot4", "realapp"} {
		if !names[want] {
			t.Fatalf("case studies missing %q", want)
		}
	}
}

func TestAreaSweepDefaults(t *testing.T) {
	points := AreaSweep(nil)
	if len(points) != 8 {
		t.Fatalf("default sweep has %d points, want 8 (64..512)", len(points))
	}
	if points[0].DataWavelengths != 64 || points[len(points)-1].DataWavelengths != 512 {
		t.Fatalf("sweep range %d..%d, want 64..512",
			points[0].DataWavelengths, points[len(points)-1].DataWavelengths)
	}
}

// TestWavelengthScalingSeries: Figures 3-8/3-9's series, d-HetPNoC at
// skewed 3 across the three bandwidth sets, grows bandwidth by multiples
// and area by the thesis's 70%.
func TestWavelengthScalingSeries(t *testing.T) {
	var cfgs []fabric.Config
	for _, set := range traffic.BandwidthSets() {
		cfgs = append(cfgs, fabric.Config{Set: set, Pattern: traffic.Skewed{Level: 3}, Arch: fabric.DHetPNoC})
	}
	rows, err := RunMatrix(context.Background(), quickOpts(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 (the three bandwidth sets)", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.TotalWavelengths != 64 || last.TotalWavelengths != 512 {
		t.Fatalf("series spans %d..%d wavelengths, want 64..512", first.TotalWavelengths, last.TotalWavelengths)
	}
	if bw := (last.PeakBandwidthGbps/first.PeakBandwidthGbps - 1) * 100; bw < 300 {
		t.Fatalf("64->512 bandwidth change %.1f%%, want a multi-x increase", bw)
	}
	areaAt := func(r Row) units.SquareMillimeter { return area.DefaultConfig(r.TotalWavelengths).DynamicAreaMM2() }
	if a := (areaAt(last)/areaAt(first) - 1) * 100; a < 69 || a > 71 {
		t.Fatalf("64->512 area change %.1f%%, thesis says 70%%", a)
	}
}
