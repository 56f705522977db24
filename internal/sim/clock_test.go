package sim

import "testing"

func TestClockConversions(t *testing.T) {
	c := DefaultClock()
	// One 12.5 Gb/s wavelength carries exactly 5 bits per 2.5 GHz cycle.
	if got := c.GbpsToBitsPerCycle(12.5); got != 5 {
		t.Fatalf("12.5 Gb/s = %g bits/cycle, want 5", got)
	}
	if got := c.BitsPerCycleToGbps(5); got != 12.5 {
		t.Fatalf("5 bits/cycle = %g Gb/s, want 12.5", got)
	}
	if got := c.Seconds(2500); got != 1e-6 {
		t.Fatalf("2500 cycles = %g s, want 1 us", got)
	}
}
