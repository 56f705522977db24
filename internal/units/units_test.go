package units

import (
	"encoding/json"
	"math"
	"testing"

	"hetpnoc/internal/sim"
)

// TestConversionsMatchRawFormulas pins the blessed helpers to the bare
// float64 formulas they replace: the refactor onto typed quantities must
// be bit-identical.
// TestCreditOf: a rate converts to the nearest 2^-32 bit, and one no
// credit count can pace is refused.
func TestCreditOf(t *testing.T) {
	if c, err := CreditOf(5); c != Bits(5) || err != nil {
		t.Errorf("CreditOf(5) = %d, %v; want 5 bits", c, err)
	}
	if c, err := CreditOf(0.2048); c != 879609302 || err != nil {
		t.Errorf("CreditOf(0.2048) = %d, %v; want round(0.2048·2^32) = 879609302", c, err)
	}
	for _, bits := range []float64{-1, math.NaN(), math.Inf(1), 1 << 30, 0x1p-34} {
		if c, err := CreditOf(bits); err == nil {
			t.Errorf("CreditOf(%g) = %d, want an error", bits, c)
		}
	}
	if got := CyclesFor(321, Bits(320)); got != 2 || CyclesFor(320, Bits(320)) != 1 || CyclesFor(0, Bits(320)) != 1 {
		t.Errorf("CyclesFor(321 bits, 320 a cycle) = %d, want 2; 320 and 0 bits want 1", got)
	}
}

func TestConversionsMatchRawFormulas(t *testing.T) {
	if got, want := float64(DBmToMilliWatt(0)), 1.0; got != want {
		t.Errorf("DBmToMilliWatt(0) = %g, want %g", got, want)
	}
	launchDBm := -20.0 + 3.25 + 0.64
	if got, want := float64(DBmToMilliWatt(DB(launchDBm))), math.Pow(10, launchDBm/10); got != want {
		t.Errorf("DBmToMilliWatt(%g) = %g, want %g", launchDBm, got, want)
	}

	clock := sim.DefaultClock()
	for _, n := range []sim.Cycle{1, 999, 2500, 1_000_000} {
		got := CyclesToSeconds(n, ClockGHz(clock))
		want := clock.Seconds(n)
		if got != want {
			t.Errorf("CyclesToSeconds(%d) = %g, want clock.Seconds = %g", n, got, want)
		}
	}

	bits, seconds := 123456789.0, 4.0e-7
	if got, want := float64(RateGbps(bits, seconds)), bits/seconds/1e9; got != want {
		t.Errorf("RateGbps = %g, want %g", got, want)
	}
}

// TestScalingHelpersMatchRawOps: Times/Div/Over are plain float
// multiplication and division in the same rounding order as the code
// they replaced.
func TestScalingHelpersMatchRawOps(t *testing.T) {
	if got, want := float64(DB(0.01).Times(960)), 0.01*960.0; got != want {
		t.Errorf("DB.Times = %g, want %g", got, want)
	}
	if got, want := float64(DBPerCm(1.5).Over(4)), 1.5*4.0; got != want {
		t.Errorf("DBPerCm.Over = %g, want %g", got, want)
	}
	if got, want := float64(Picojoule(0.078125).Times(544)), 0.078125*544.0; got != want {
		t.Errorf("Picojoule.Times = %g, want %g", got, want)
	}
	// Computed through variables: a constant expression would be folded
	// at full precision and round differently from the runtime division.
	num, den := 977.3, 7.0
	if got, want := float64(Picojoule(num).Div(den)), num/den; got != want {
		t.Errorf("Picojoule.Div = %g, want %g", got, want)
	}
	if got, want := float64(Gbps(512.25).Div(64)), 512.25/64.0; got != want {
		t.Errorf("Gbps.Div = %g, want %g", got, want)
	}
}

// TestJSONIsBitIdenticalToFloat64: defined types must encode exactly as
// the underlying float64 — the golden and differential oracles depend
// on it.
func TestJSONIsBitIdenticalToFloat64(t *testing.T) {
	typed, err := json.Marshal(struct {
		A Gbps
		B Picojoule
		C SquareMillimeter
	}{Gbps(409.6), Picojoule(0.0015625), SquareMillimeter(1.6084954386379741)})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(struct {
		A, B, C float64
	}{409.6, 0.0015625, 1.6084954386379741})
	if err != nil {
		t.Fatal(err)
	}
	if string(typed) != string(raw) {
		t.Errorf("typed JSON %s differs from raw float64 JSON %s", typed, raw)
	}
}

// TestLabels: the String/Unit methods are the single source of unit
// labels for the HTML report and the examples.
func TestLabels(t *testing.T) {
	cases := []struct {
		str, unit string
	}{
		{DB(3.25).String(), DB(0).Unit()},
		{DBPerCm(1.5).String(), DBPerCm(0).Unit()},
		{MilliWatt(1.5).String(), MilliWatt(0).Unit()},
		{Picojoule(0.04).String(), Picojoule(0).Unit()},
		{Gbps(409.6).String(), Gbps(0).Unit()},
		{Centimeter(4).String(), Centimeter(0).Unit()},
		{GHz(2.5).String(), GHz(0).Unit()},
		{SquareMillimeter(1.608).String(), SquareMillimeter(0).Unit()},
	}
	wantUnits := []string{"dB", "dB/cm", "mW", "pJ", "Gb/s", "cm", "GHz", "mm^2"}
	for i, c := range cases {
		if c.unit != wantUnits[i] {
			t.Errorf("Unit() = %q, want %q", c.unit, wantUnits[i])
		}
		if len(c.str) == 0 || c.str[len(c.str)-len(c.unit):] != c.unit {
			t.Errorf("String() = %q does not end in unit %q", c.str, c.unit)
		}
	}
}
