package experiments

import (
	"context"
	"testing"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

// quickOpts shrinks the runs so the whole package tests in seconds.
func quickOpts() Options {
	return Options{Cycles: 2500, WarmupCycles: 500, Seed: 1}
}

func TestRunMatrixOrderAndFields(t *testing.T) {
	points := []Point{
		{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly},
		{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: fabric.DHetPNoC},
	}
	rows, err := RunMatrix(context.Background(), quickOpts(), points)
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
		if r.AtLoad != 1.0 {
			t.Fatalf("default sweep should settle at load 1.0, got %g", r.AtLoad)
		}
	}
}

func TestRunMatrixLoadSweepKeepsBest(t *testing.T) {
	opts := quickOpts()
	opts.LoadScales = []float64{0.5, 1.0}
	rows, err := RunMatrix(context.Background(), opts, []Point{
		{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform delivered bandwidth grows with load, so the peak is at 1.0.
	if rows[0].AtLoad != 1.0 {
		t.Fatalf("peak found at load %g, want 1.0", rows[0].AtLoad)
	}
}

func TestPeakBandwidthMatrixShape(t *testing.T) {
	rows, err := PeakBandwidth(context.Background(), quickOpts(), []traffic.BandwidthSet{traffic.BWSet1})
	if err != nil {
		t.Fatal(err)
	}
	// 4 patterns x 2 architectures.
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
}

func TestCaseStudiesShape(t *testing.T) {
	rows, err := CaseStudies(context.Background(), quickOpts(), traffic.BWSet1)
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

func TestWavelengthScalingSeries(t *testing.T) {
	points, err := WavelengthScaling(context.Background(), quickOpts(), fabric.DHetPNoC)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3 (the three bandwidth sets)", len(points))
	}
	if points[0].BandwidthChangePct != 0 || points[0].AreaChangePct != 0 {
		t.Fatalf("base point deltas not zero: %+v", points[0])
	}
	// Bandwidth must grow dramatically with the wavelength budget; area
	// grows ~70% (the analytic model).
	last := points[len(points)-1]
	if last.BandwidthChangePct < 300 {
		t.Fatalf("64->512 bandwidth change %.1f%%, want a multi-x increase", last.BandwidthChangePct)
	}
	if last.AreaChangePct < 69 || last.AreaChangePct > 71 {
		t.Fatalf("64->512 area change %.1f%%, thesis says 70%%", last.AreaChangePct)
	}
}

func TestSetByName(t *testing.T) {
	if _, err := setByName("BW2"); err != nil {
		t.Fatal(err)
	}
	if _, err := setByName("nope"); err == nil {
		t.Fatal("unknown set accepted")
	}
}
