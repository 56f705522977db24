package sim

// Cycle is a simulation clock tick. Cycle 0 is the first cycle of a run.
type Cycle int64

// ClockHz is the NoC clock frequency. The thesis fixes it at 2.5 GHz
// (Table 3-3), i.e. a 400 ps cycle.
const ClockHz = 2.5e9

// GbpsToBitsPerCycle converts a bandwidth in Gb/s to bits per cycle. At
// 2.5 GHz one 12.5 Gb/s wavelength carries exactly 5 bits per cycle.
func GbpsToBitsPerCycle(gbps float64) float64 {
	return gbps * 1e9 / ClockHz
}

// BitsPerCycleToGbps converts a per-cycle bit rate back to Gb/s.
func BitsPerCycleToGbps(bitsPerCycle float64) float64 {
	return bitsPerCycle * ClockHz / 1e9
}
