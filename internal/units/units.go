// Package units defines the typed physical quantities of the thesis's
// evaluation model. Each quantity is a defined type over float64 (or
// reuses sim.Cycle for clock ticks; BitCredit is a fixed-point integer),
// so arithmetic inside one unit domain is value-preserving — JSON
// encoding, comparisons and float operations are bit-identical to the
// bare float64 they replace — while the compiler rejects arithmetic that
// mixes domains (a dB figure added to a milliwatt figure, a cycle count
// mixed with wall-clock time).
//
// Conversions between domains are deliberate: they happen only through
// the blessed helpers below, which encode the paper's actual formulas
// (dBm-to-milliwatt launch power, cycles-to-seconds at the modeled
// clock). The compiler is the gate: mixed arithmetic does not build, and
// an explicit cast from one unit type to another has to be written out,
// where review can see it.
package units

import (
	"fmt"
	"math"

	"hetpnoc/internal/sim"
)

// DB is a logarithmic power quantity in decibels. It covers both
// relative figures (insertion loss, crosstalk penalty) and absolute
// dBm-referenced levels (detector sensitivity, launch power): the two
// add freely along a link budget, which is exactly how §3's budget
// equations use them.
type DB float64

// DBPerCm is a per-length loss rate — the waveguide propagation loss of
// Table 3-4.
type DBPerCm float64

// MilliWatt is linear optical or heater power in milliwatts.
type MilliWatt float64

// Picojoule is dissipated energy in picojoules, the unit of the
// Table 3-4/3-5 energy model and the energy-per-message metric.
type Picojoule float64

// Gbps is a bit rate in gigabits per second, the thesis's bandwidth
// axis (§3.4.1.1).
type Gbps float64

// Centimeter is an on-die optical path length in centimeters, the unit
// the propagation-loss rate multiplies.
type Centimeter float64

// SquareMillimeter is silicon area in mm², the unit of the §3.4.3 area
// model (Figure 3-6).
type SquareMillimeter float64

// Unit returns the bare unit label, for callers composing their own
// formatting around a printed value.
func (DB) Unit() string               { return "dB" }
func (DBPerCm) Unit() string          { return "dB/cm" }
func (MilliWatt) Unit() string        { return "mW" }
func (Picojoule) Unit() string        { return "pJ" }
func (Gbps) Unit() string             { return "Gb/s" }
func (Centimeter) Unit() string       { return "cm" }
func (SquareMillimeter) Unit() string { return "mm^2" }

// String renders the value with its unit label.
func (v DB) String() string               { return fmt.Sprintf("%g %s", float64(v), v.Unit()) }
func (v DBPerCm) String() string          { return fmt.Sprintf("%g %s", float64(v), v.Unit()) }
func (v MilliWatt) String() string        { return fmt.Sprintf("%g %s", float64(v), v.Unit()) }
func (v Picojoule) String() string        { return fmt.Sprintf("%g %s", float64(v), v.Unit()) }
func (v Gbps) String() string             { return fmt.Sprintf("%g %s", float64(v), v.Unit()) }
func (v Centimeter) String() string       { return fmt.Sprintf("%g %s", float64(v), v.Unit()) }
func (v SquareMillimeter) String() string { return fmt.Sprintf("%g %s", float64(v), v.Unit()) }

// Times scales a loss by a dimensionless element count (rings passed,
// crossings traversed). The explicit conversion rounds the product, so a
// compiler cannot fuse it with a following addition (Go spec,
// "Arithmetic operators"): a sum of Times is the same on every GOARCH.
func (v DB) Times(n float64) DB { return DB(v * DB(n)) }

// Over converts the loss rate into a loss over a path of the given
// length.
func (r DBPerCm) Over(length Centimeter) DB { return DB(float64(r) * float64(length)) }

// Times scales an energy by a dimensionless count (bits, bit-cycles),
// rounding the product explicitly like DB.Times.
func (v Picojoule) Times(n float64) Picojoule { return Picojoule(v * Picojoule(n)) }

// Div divides an energy by a dimensionless count (packets delivered),
// yielding a per-item energy in the same unit.
func (v Picojoule) Div(n float64) Picojoule { return v / Picojoule(n) }

// Div divides a rate by a dimensionless count (cores), yielding a
// per-item rate in the same unit.
func (v Gbps) Div(n float64) Gbps { return v / Gbps(n) }

// DBmToMilliWatt converts an absolute dBm-referenced level into linear
// milliwatts — the launch-power step of the §3 link budget.
func DBmToMilliWatt(dbm DB) MilliWatt { return MilliWatt(math.Pow(10, float64(dbm)/10)) }

// CyclesToSeconds converts a cycle count at the modeled clock
// (sim.ClockHz) into wall-clock seconds.
func CyclesToSeconds(n sim.Cycle) float64 {
	return float64(n) / sim.ClockHz
}

// RateGbps derives a bit rate from bits delivered over a measurement
// window in seconds — the §3.4.1.1 delivered-bandwidth metric.
func RateGbps(bits, seconds float64) Gbps { return Gbps(bits / seconds / 1e9) }

// BitCredit is what a source or a channel earns per cycle and spends per
// packet or flit, an exact integer count of 2^-32 bit.
type BitCredit int64

// MaxCredit bounds what CreditOf accepts, so two such amounts add.
const MaxCredit BitCredit = 1 << 62

// Bits is n whole bits as credit.
func Bits(n int) BitCredit { return BitCredit(n) << 32 }

// CyclesFor is how many cycles, at least one, bits take at perCycle.
func CyclesFor(bits int, perCycle BitCredit) int {
	return max(1, int((Bits(bits)+perCycle-1)/perCycle))
}

// CreditOf converts bits (a rate per cycle) to credit, rounded to the
// nearest unit. It refuses NaN, a negative amount, one of 2^30 bits or
// more, and a positive one that rounds to no credit at all.
func CreditOf(bits float64) (BitCredit, error) {
	c := math.Round(math.Ldexp(bits, 32))
	if !(bits >= 0 && c < float64(MaxCredit)) || c == 0 && bits > 0 {
		return 0, fmt.Errorf("%g bits is outside the credit range [2^-33, 2^30)", bits)
	}
	return BitCredit(c), nil
}
