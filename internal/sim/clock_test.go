package sim

import "testing"

func TestClockConversions(t *testing.T) {
	// One 12.5 Gb/s wavelength carries exactly 5 bits per 2.5 GHz cycle.
	if got := GbpsToBitsPerCycle(12.5); got != 5 {
		t.Fatalf("12.5 Gb/s = %g bits/cycle, want 5", got)
	}
	if got := BitsPerCycleToGbps(5); got != 12.5 {
		t.Fatalf("5 bits/cycle = %g Gb/s, want 12.5", got)
	}
}
