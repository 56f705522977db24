package photonic

import (
	"testing"
	"testing/quick"

	"hetpnoc/internal/units"
)

func TestNewBundleSizing(t *testing.T) {
	tests := []struct {
		total      int
		waveguides int
	}{
		{1, 1}, {64, 1}, {65, 2}, {128, 2}, {256, 4}, {512, 8},
	}
	for _, tt := range tests {
		b, err := NewBundle(tt.total)
		if err != nil {
			t.Fatalf("NewBundle(%d): %v", tt.total, err)
		}
		if b.Waveguides != tt.waveguides {
			t.Errorf("NewBundle(%d).Waveguides = %d, want %d", tt.total, b.Waveguides, tt.waveguides)
		}
		if b.Capacity() < tt.total {
			t.Errorf("NewBundle(%d).Capacity() = %d < total", tt.total, b.Capacity())
		}
	}
}

func TestNewBundleRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewBundle(n); err == nil {
			t.Errorf("NewBundle(%d) succeeded", n)
		}
	}
}

func TestSlotMappingRoundTrip(t *testing.T) {
	b, err := NewBundle(512)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		slot := int(raw) % b.Capacity()
		return b.SlotForID(b.IDForSlot(slot)) == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsPerCycle(t *testing.T) {
	if got := BitsPerCycle(2.5e9); got != 5 {
		t.Fatalf("BitsPerCycle(2.5 GHz) = %g, want 5", got)
	}
}

func TestWavelengthIDOrdering(t *testing.T) {
	ids := []WavelengthID{
		{Waveguide: 1, Wavelength: 0},
		{Waveguide: 0, Wavelength: 5},
		{Waveguide: 0, Wavelength: 2},
		{Waveguide: 1, Wavelength: 0}, // duplicate keeps order stable
	}
	SortWavelengths(ids)
	want := []WavelengthID{{0, 2}, {0, 5}, {1, 0}, {1, 0}}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted %v, want %v", ids, want)
		}
	}
	if s := ids[0].String(); s != "w0:l2" {
		t.Fatalf("String() = %q", s)
	}
}

func TestLedgerWarmupGating(t *testing.T) {
	l := NewLedger(DefaultEnergyParams())
	l.AddPhotonicTransmit(1000)
	l.AddRouterTraversal(1000)
	if got := l.TotalPJ(); got != 0 {
		t.Fatalf("ledger counted %g pJ before measurement", got)
	}
	l.StartMeasurement()
	l.AddPhotonicTransmit(1000)
	if got := l.TotalPJ(); got == 0 {
		t.Fatal("ledger ignored post-measurement energy")
	}
}

func TestLedgerComponents(t *testing.T) {
	p := DefaultEnergyParams()
	l := NewLedger(p)
	l.StartMeasurement()

	l.AddPhotonicTransmit(100)
	wantLaunch := p.LaunchPJPerBit.Times(100)
	wantMod := p.ModulationPJPerBit.Times(100)
	wantTune := p.TuningPJPerBit.Times(100)
	if got := l.Total(EnergyLaunch); got != wantLaunch {
		t.Errorf("launch = %g, want %g", got, wantLaunch)
	}
	if got := l.Total(EnergyModulation); got != wantMod {
		t.Errorf("modulation = %g, want %g", got, wantMod)
	}
	if got := l.Total(EnergyTuning); got != wantTune {
		t.Errorf("tuning = %g, want %g", got, wantTune)
	}

	l.AddControlTransmit(100)
	// Control transmit adds launch + modulation but no tuning.
	if got := l.Total(EnergyTuning); got != wantTune {
		t.Errorf("control transmit charged tuning: %g, want %g", got, wantTune)
	}
	if got := l.Total(EnergyLaunch); got != 2*wantLaunch {
		t.Errorf("launch after control = %g, want %g", got, 2*wantLaunch)
	}

	l.AddDemodulation(50)
	l.AddBufferAccess(200)
	l.AddBufferResidency(400)
	l.AddRouterTraversal(300)
	l.AddWireLink(100)
	l.AddIdleDetector(10)

	// The grand total must equal the sum of the breakdown.
	var sum units.Picojoule
	for _, v := range l.Breakdown() {
		sum += v
	}
	if got := l.TotalPJ(); got != sum {
		t.Fatalf("TotalPJ = %g, breakdown sums to %g", got, sum)
	}
	if l.PhotonicPJ()+l.ElectricalPJ() != l.TotalPJ() {
		t.Fatalf("photonic (%g) + electrical (%g) != total (%g)",
			l.PhotonicPJ(), l.ElectricalPJ(), l.TotalPJ())
	}
}

func TestDefaultEnergyParamsMatchTable3_5(t *testing.T) {
	p := DefaultEnergyParams()
	if p.ModulationPJPerBit != 0.04 {
		t.Errorf("modulation = %g, Table 3-5 says 0.04", p.ModulationPJPerBit)
	}
	if p.TuningPJPerBit != 0.24 {
		t.Errorf("tuning = %g, Table 3-5 says 0.24", p.TuningPJPerBit)
	}
	if p.LaunchPJPerBit != 0.15 {
		t.Errorf("launch = %g, Table 3-5 says 0.15", p.LaunchPJPerBit)
	}
	if p.BufferPJPerBit != 0.078125 {
		t.Errorf("buffer = %g, Table 3-5 says 0.078125", p.BufferPJPerBit)
	}
	if p.RouterPJPerBit != 0.625 {
		t.Errorf("router = %g, Table 3-5 says 0.625", p.RouterPJPerBit)
	}
}

func TestComponentNames(t *testing.T) {
	comps := Components()
	if len(comps) != 8 {
		t.Fatalf("Components() returned %d entries, want 8", len(comps))
	}
	seen := make(map[string]bool)
	for _, c := range comps {
		name := c.String()
		if name == "unknown" {
			t.Fatalf("component %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate component name %q", name)
		}
		seen[name] = true
	}
}
