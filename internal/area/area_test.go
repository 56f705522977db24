package area

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPaperHeadlineAreas checks the thesis's §3.4.3 numbers exactly: with
// 64 data wavelengths and 16 photonic routers, "the total
// modulator/demodulator area for d-HetPNoC and Firefly are 1.608 mm2 and
// 1.367 mm2 respectively".
func TestPaperHeadlineAreas(t *testing.T) {
	cfg := Config{DataWavelengths: 64}
	if got := cfg.DynamicAreaMM2(); math.Abs(float64(got)-1.608) > 0.002 {
		t.Errorf("d-HetPNoC area = %.4f mm^2, thesis says 1.608", got)
	}
	if got := cfg.FireflyAreaMM2(); math.Abs(float64(got)-1.367) > 0.002 {
		t.Errorf("Firefly area = %.4f mm^2, thesis says 1.367", got)
	}
}

// TestDeviceCountEquations verifies the closed forms of Equations 5-22 at
// the 64-wavelength design point.
func TestDeviceCountEquations(t *testing.T) {
	cfg := Config{DataWavelengths: 64}
	// Eq. 9: 16*64*1 + 16*64 + 16*64 = 3072 dynamic modulators.
	if got := cfg.DynamicModulators(); got != 3072 {
		t.Errorf("T_MD = %d, want 3072", got)
	}
	// Eq. 18: 16*64*1 + 16*64*15 + 16*64 = 17408 dynamic detectors.
	if got := cfg.DynamicDetectors(); got != 17408 {
		t.Errorf("T_DMD = %d, want 17408", got)
	}
	// Eq. 13: 16*4 + 16*64 = 1088 Firefly modulators.
	if got := cfg.FireflyModulators(); got != 1088 {
		t.Errorf("T_MF = %d, want 1088", got)
	}
	// Eq. 22: 16*4*15 + 16*64*15 = 16320 Firefly detectors.
	if got := cfg.FireflyDetectors(); got != 16320 {
		t.Errorf("T_DMF = %d, want 16320", got)
	}
}

// TestScalingPercentages reproduces the thesis's scaling statements: from
// 64 to 512 wavelengths the d-HetPNoC area grows by 70% (Figures 3-8/3-9)
// and the Firefly area by 41.17% (Figure 3-10 discussion).
func TestScalingPercentages(t *testing.T) {
	small := Config{DataWavelengths: 64}
	large := Config{DataWavelengths: 512}

	dGrowth := float64((large.DynamicAreaMM2()/small.DynamicAreaMM2() - 1) * 100)
	if math.Abs(dGrowth-70.0) > 0.5 {
		t.Errorf("d-HetPNoC area growth 64->512 = %.2f%%, thesis says 70%%", dGrowth)
	}
	fGrowth := float64((large.FireflyAreaMM2()/small.FireflyAreaMM2() - 1) * 100)
	if math.Abs(fGrowth-41.17) > 0.5 {
		t.Errorf("Firefly area growth 64->512 = %.2f%%, thesis says 41.17%%", fGrowth)
	}
}

func TestDataWaveguides(t *testing.T) {
	tests := []struct{ wavelengths, want int }{
		{64, 1}, {65, 2}, {128, 2}, {256, 4}, {512, 8},
	}
	for _, tt := range tests {
		cfg := Config{DataWavelengths: tt.wavelengths}
		if got := cfg.DataWaveguides(); got != tt.want {
			t.Errorf("DataWaveguides(%d) = %d, want %d", tt.wavelengths, got, tt.want)
		}
	}
}

func TestFireflyWavelengthsPerChannel(t *testing.T) {
	// Table 3-3: 4, 16 and 32 wavelengths per channel for the three sets.
	tests := []struct{ wavelengths, want int }{
		{64, 4}, {256, 16}, {512, 32},
	}
	for _, tt := range tests {
		cfg := Config{DataWavelengths: tt.wavelengths}
		if got := cfg.FireflyWavelengthsPerChannel(); got != tt.want {
			t.Errorf("FireflyWavelengthsPerChannel(%d) = %d, want %d", tt.wavelengths, got, tt.want)
		}
	}
}

// TestDynamicAlwaysCostsMore: the flexibility of writing any wavelength in
// any waveguide can never be cheaper than Firefly's dedicated channels.
func TestDynamicAlwaysCostsMore(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw)%2048 + 16
		cfg := Config{DataWavelengths: n}
		return cfg.DynamicAreaMM2() >= cfg.FireflyAreaMM2()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestAreaMonotoneInBandwidth: more provisioned bandwidth never shrinks
// either architecture's device area.
func TestAreaMonotoneInBandwidth(t *testing.T) {
	prev := Config{DataWavelengths: 64}
	for n := 128; n <= 1024; n += 64 {
		cur := Config{DataWavelengths: n}
		if cur.DynamicAreaMM2() < prev.DynamicAreaMM2() {
			t.Fatalf("d-HetPNoC area shrank from %d to %d wavelengths", n-64, n)
		}
		if cur.FireflyAreaMM2() < prev.FireflyAreaMM2() {
			t.Fatalf("Firefly area shrank from %d to %d wavelengths", n-64, n)
		}
		prev = cur
	}
}

func TestSweepOverheadGrows(t *testing.T) {
	points := Sweep([]int{64, 256, 512})
	if len(points) != 3 {
		t.Fatalf("Sweep returned %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].OverheadPct <= points[i-1].OverheadPct {
			t.Fatalf("overhead not growing: %v", points)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Config{DataWavelengths: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for _, n := range []int{0, -64} {
		if err := (Config{DataWavelengths: n}).Validate(); err == nil {
			t.Errorf("%d data wavelengths passed validation", n)
		}
	}
}
