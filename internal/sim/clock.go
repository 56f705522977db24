package sim

// Cycle is a simulation clock tick. Cycle 0 is the first cycle of a run.
type Cycle int64

// Clock converts between cycles and wall-clock quantities for a fixed
// operating frequency. The thesis fixes the NoC clock at 2.5 GHz
// (Table 3-3), i.e. a 400 ps cycle.
type Clock struct {
	// FrequencyHz is the clock frequency in Hertz.
	FrequencyHz float64
}

// DefaultClock is the 2.5 GHz clock used throughout the thesis.
func DefaultClock() Clock {
	return Clock{FrequencyHz: 2.5e9}
}

// Seconds returns the wall-clock time spanned by n cycles.
func (c Clock) Seconds(n Cycle) float64 {
	return float64(n) / c.FrequencyHz
}

// GbpsToBitsPerCycle converts a bandwidth in Gb/s to bits per cycle at
// this clock. At 2.5 GHz one 12.5 Gb/s wavelength carries exactly 5 bits
// per cycle.
func (c Clock) GbpsToBitsPerCycle(gbps float64) float64 {
	return gbps * 1e9 / c.FrequencyHz
}

// BitsPerCycleToGbps converts a per-cycle bit rate back to Gb/s.
func (c Clock) BitsPerCycleToGbps(bitsPerCycle float64) float64 {
	return bitsPerCycle * c.FrequencyHz / 1e9
}
