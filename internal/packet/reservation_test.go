package packet

import (
	"testing"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/units"
)

// perWavelength is what one wavelength carries per 2.5 GHz cycle.
var perWavelength, _ = photonic.WavelengthCredit(2.5e9)

func bundleFor(total int) photonic.WaveguideBundle {
	b, err := photonic.NewBundle(total)
	if err != nil {
		panic(err)
	}
	return b
}

// TestReservationTimingSection3_4_1_1 checks the exact timing argument of
// §3.4.1.1: for bandwidth set 1 (single waveguide, up to 8 wavelength
// identifiers) the reservation flit fits in one clock cycle; for bandwidth
// set 3 (8 waveguides, up to 64 identifiers) it needs two.
func TestReservationTimingSection3_4_1_1(t *testing.T) {
	const clusters, maxFlits1, maxFlits3 = 16, 64, 8

	set1 := bundleFor(64)
	if got := ReservationCycles(clusters, maxFlits1, set1, 8, perWavelength); got != 1 {
		t.Fatalf("BW set 1 reservation takes %d cycles, want 1 (§3.4.1.1)", got)
	}

	set3 := bundleFor(512)
	if set3.Waveguides != 8 {
		t.Fatalf("512 wavelengths need %d waveguides, want 8", set3.Waveguides)
	}
	if got := ReservationCycles(clusters, maxFlits3, set3, 64, perWavelength); got != 2 {
		t.Fatalf("BW set 3 reservation takes %d cycles, want 2 (§3.4.1.1)", got)
	}
}

func TestReservationBitsComposition(t *testing.T) {
	set1 := bundleFor(64)
	// 16 clusters -> 4 bits; 64 flits -> 7 bits (65 values); 8 IDs x 6
	// bits (single waveguide: no waveguide field).
	want := 4 + 7 + 8*6
	if got := ReservationBits(16, 64, set1, 8); got != want {
		t.Fatalf("ReservationBits = %d, want %d", got, want)
	}

	set3 := bundleFor(512)
	// Waveguide field adds log2(8)=3 bits per identifier (§3.4.1.1).
	want = 4 + 4 + 64*(6+3) // 8 flits -> 4 bits (9 values)
	if got := ReservationBits(16, 8, set3, 64); got != want {
		t.Fatalf("ReservationBits = %d, want %d", got, want)
	}
}

func TestReservationCyclesBoundaries(t *testing.T) {
	b := bundleFor(64)
	// 320 bits per cycle on the 64-wavelength reservation waveguide.
	if perWavelength*64 != units.Bits(320) {
		t.Fatalf("reservation waveguide carries %d credit a cycle, want 320 bits", perWavelength*64)
	}
	// Zero identifiers (Firefly) always fits one cycle.
	if got := ReservationCycles(16, 64, b, 0, perWavelength); got != 1 {
		t.Fatalf("Firefly reservation takes %d cycles, want 1", got)
	}
	// 51 IDs x 6 bits + 11 header bits = 317 bits -> still one cycle;
	// 52 IDs = 323 bits -> two.
	if got := ReservationCycles(16, 64, b, 51, perWavelength); got != 1 {
		t.Fatalf("317-bit reservation takes %d cycles, want 1", got)
	}
	if got := ReservationCycles(16, 64, b, 52, perWavelength); got != 2 {
		t.Fatalf("323-bit reservation takes %d cycles, want 2", got)
	}
}

func TestDestinationIDBits(t *testing.T) {
	tests := []struct{ clusters, want int }{
		{1, 0}, {2, 1}, {16, 4}, {17, 5}, {64, 6},
	}
	for _, tt := range tests {
		if got := DestinationIDBits(tt.clusters); got != tt.want {
			t.Errorf("DestinationIDBits(%d) = %d, want %d", tt.clusters, got, tt.want)
		}
	}
}
