package area

import "testing"

// TestRestrictedModulatorCounts checks the Chapter 4 mitigation model: a
// router restricted to W waveguides needs lambda_W x W data modulators
// instead of lambda_W x N_WD.
func TestRestrictedModulatorCounts(t *testing.T) {
	cfg := Config{DataWavelengths: 512} // 8 waveguides
	// Unrestricted: 16*64*8 + 2*16*64 = 10240.
	if got := cfg.DynamicModulators(); got != 10240 {
		t.Fatalf("unrestricted modulators = %d, want 10240", got)
	}
	// Restricted to 2: 16*64*2 + 2*16*64 = 4096.
	if got := cfg.RestrictedDynamicModulators(2); got != 4096 {
		t.Fatalf("restricted modulators = %d, want 4096", got)
	}
	// Detector count is conservative: unchanged.
	if got, want := cfg.RestrictedDynamicDetectors(2), cfg.DynamicDetectors(); got != want {
		t.Fatalf("restricted detectors = %d, want %d", got, want)
	}
}

func TestRestrictedAreaBetweenFireflyAndDynamic(t *testing.T) {
	cfg := Config{DataWavelengths: 512}
	full := cfg.DynamicAreaMM2()
	restricted := cfg.RestrictedDynamicAreaMM2(2)
	firefly := cfg.FireflyAreaMM2()
	if restricted >= full {
		t.Fatalf("restriction did not save area: %.3f vs %.3f", restricted, full)
	}
	if restricted <= firefly {
		t.Fatalf("restricted d-HetPNoC (%.3f) cheaper than Firefly (%.3f): detectors alone exceed it", restricted, firefly)
	}
}

func TestRestrictedDegenerateArguments(t *testing.T) {
	cfg := Config{DataWavelengths: 512}
	// Zero or over-wide restrictions degrade to the unrestricted model.
	if got, want := cfg.RestrictedDynamicModulators(0), cfg.DynamicModulators(); got != want {
		t.Fatalf("restriction 0 gave %d modulators, want unrestricted %d", got, want)
	}
	if got, want := cfg.RestrictedDynamicModulators(99), cfg.DynamicModulators(); got != want {
		t.Fatalf("restriction 99 gave %d modulators, want unrestricted %d", got, want)
	}
}

// TestRestrictedMonotoneInWaveguides: more allowed waveguides means more
// modulators.
func TestRestrictedMonotoneInWaveguides(t *testing.T) {
	cfg := Config{DataWavelengths: 512}
	prev := 0
	for w := 1; w <= cfg.DataWaveguides(); w++ {
		got := cfg.RestrictedDynamicModulators(w)
		if got <= prev {
			t.Fatalf("modulators not monotone at %d waveguides", w)
		}
		prev = got
	}
	if prev != cfg.DynamicModulators() {
		t.Fatalf("full restriction (%d) != unrestricted (%d)", prev, cfg.DynamicModulators())
	}
}
