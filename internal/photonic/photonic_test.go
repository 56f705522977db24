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
	if got, err := WavelengthCredit(2.5e9); got != units.Bits(5) || err != nil {
		t.Fatalf("WavelengthCredit(2.5 GHz) = %d, %v; want 5 bits", got, err)
	}
}

func TestLedgerWarmupGating(t *testing.T) {
	l := NewLedger(DefaultEnergyParams())
	l.AddPhotonicTransmit(1000)
	l.Add(EnergyRouter, 1000)
	if got := l.Counts(); got != (Counts{}) {
		t.Fatalf("ledger counted %v before measurement", got)
	}
	l.StartMeasurement()
	l.AddPhotonicTransmit(1000)
	if got := l.Energy().TotalPJ; got == 0 {
		t.Fatal("ledger ignored post-measurement energy")
	}
}

func TestLedgerComponents(t *testing.T) {
	p := DefaultEnergyParams()
	l := NewLedger(p)
	l.StartMeasurement()

	l.AddPhotonicTransmit(100)
	l.AddControlTransmit(100) // launch + modulation, but no tuning
	l.Add(EnergyModulation, 50)
	l.Add(EnergyBuffer, 200)
	l.Add(EnergyBufferResidency, 400)
	l.Add(EnergyRouter, 300)
	l.Add(EnergyWireLink, 100)
	l.Add(EnergyIdleDetector, 10)
	want := Counts{
		EnergyLaunch: 200, EnergyModulation: 250, EnergyTuning: 100,
		EnergyBuffer: 200, EnergyBufferResidency: 400, EnergyRouter: 300,
		EnergyWireLink: 100, EnergyIdleDetector: 10,
	}
	if got := l.Counts(); got != want {
		t.Fatalf("counts = %v, want %v", got, want)
	}

	e := l.Energy()
	if e != p.Price(want) {
		t.Fatalf("Energy() = %+v, Price = %+v", e, p.Price(want))
	}
	if got, want := e.ByComponent[EnergyLaunch], p.LaunchPJPerBit.Times(200); got != want {
		t.Errorf("launch = %g, want %g", got, want)
	}
	if got, want := e.ByComponent[EnergyIdleDetector], p.IdleDetectorPJPerWavelengthCycle.Times(10); got != want {
		t.Errorf("idle detector = %g, want %g", got, want)
	}
	// The grand total must equal the sum of the breakdown.
	var sum units.Picojoule
	for _, v := range e.ByComponent {
		sum += v
	}
	if e.TotalPJ != sum {
		t.Fatalf("TotalPJ = %g, breakdown sums to %g", e.TotalPJ, sum)
	}
	if e.PhotonicPJ+e.ElectricalPJ != e.TotalPJ {
		t.Fatalf("photonic (%g) + electrical (%g) != total (%g)", e.PhotonicPJ, e.ElectricalPJ, e.TotalPJ)
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
