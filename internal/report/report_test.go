package report

import (
	"math"
	"strings"
	"testing"

	"hetpnoc/internal/area"
	"hetpnoc/internal/experiments"
	"hetpnoc/internal/gpgpu"
)

func TestBarChartValidation(t *testing.T) {
	bad := []BarChart{
		{Title: "no groups", Series: []Series{{Name: "a", Values: nil}}},
		{Title: "no series", Groups: []string{"x"}},
		{Title: "mismatch", Groups: []string{"x", "y"}, Series: []Series{{Name: "a", Values: []float64{1}}}},
		{Title: "negative", Groups: []string{"x"}, Series: []Series{{Name: "a", Values: []float64{-1}}}},
		{Title: "nan", Groups: []string{"x"}, Series: []Series{{Name: "a", Values: []float64{math.NaN()}}}},
	}
	for _, c := range bad {
		if _, err := c.SVG(); err == nil {
			t.Errorf("chart %q rendered despite invalid data", c.Title)
		}
	}
}

func TestBarChartSVGStructure(t *testing.T) {
	c := BarChart{
		Title:  "Peak <bandwidth>", // must be escaped
		YLabel: "Gb/s",
		Groups: []string{"uniform", "skewed2"},
		Series: []Series{
			{Name: "firefly", Values: []float64{795, 559}},
			{Name: "d-hetpnoc", Values: []float64{795, 790}},
		},
	}
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "</svg>", "Peak &lt;bandwidth&gt;", "uniform", "skewed2", "firefly", "d-hetpnoc"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// Two series x two groups = four bars.
	if got := strings.Count(svg, "<rect"); got < 4 {
		t.Fatalf("only %d rects, want >= 4 bars", got)
	}
	if strings.Contains(svg, "<script") {
		t.Fatal("SVG contains script")
	}
}

func TestBarChartBarHeightsProportional(t *testing.T) {
	c := BarChart{
		Title:  "t",
		Groups: []string{"a"},
		Series: []Series{{Name: "s", Values: []float64{100}}, {Name: "r", Values: []float64{50}}},
	}
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	// The 100 bar must reach the plot top (height == plot height); the
	// 50 bar half of it. Extract heights crudely.
	if !strings.Contains(svg, `height="220.0"`) || !strings.Contains(svg, `height="110.0"`) {
		t.Fatalf("bar heights not proportional:\n%s", svg)
	}
}

func TestFullReportRenders(t *testing.T) {
	r := New("Title", "Subtitle")

	rows := []experiments.Row{
		{Set: "BW1", Pattern: "uniform", Arch: "firefly", PeakBandwidthGbps: 795, EnergyPerMessagePJ: 9255, AvgLatencyCycles: 270},
		{Set: "BW1", Pattern: "uniform", Arch: "d-hetpnoc", PeakBandwidthGbps: 795, EnergyPerMessagePJ: 9332, AvgLatencyCycles: 270},
		{Set: "BW1", Pattern: "skewed2", Arch: "firefly", PeakBandwidthGbps: 559, EnergyPerMessagePJ: 21010, AvgLatencyCycles: 2215},
		{Set: "BW1", Pattern: "skewed2", Arch: "d-hetpnoc", PeakBandwidthGbps: 790, EnergyPerMessagePJ: 12201, AvgLatencyCycles: 892},
	}
	if err := r.AddPeakBandwidth("BW1", rows); err != nil {
		t.Fatal(err)
	}
	if err := r.AddAreaModel(area.Sweep([]int{64, 256, 512})); err != nil {
		t.Fatal(err)
	}
	gpu, err := gpgpu.Figure1_1()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddGPUSpeedups(gpu); err != nil {
		t.Fatal(err)
	}
	r.AddAblations([]experiments.AblationRow{
		{Study: "s", Variant: "v", PeakBandwidthGbps: 1, EnergyPerMessagePJ: 2, AreaMM2: 3},
	})

	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	doc := b.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Title", "Subtitle",
		"Figure 3-3", "Figure 3-6", "Figure 1-1",
		"Ablation studies", "skewed2", "BFS",
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestAddPeakBandwidthRejectsUnknownSet(t *testing.T) {
	r := New("t", "s")
	if err := r.AddPeakBandwidth("BW9", nil); err == nil {
		t.Fatal("empty set accepted")
	}
}

func TestFormatTick(t *testing.T) {
	tests := map[float64]string{
		25000: "25k", 1500: "1.5k", 120: "120", 7.25: "7.25",
	}
	for v, want := range tests {
		if got := formatTick(v); got != want {
			t.Errorf("formatTick(%g) = %q, want %q", v, got, want)
		}
	}
}
