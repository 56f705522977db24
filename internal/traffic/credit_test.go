package traffic

import (
	"math"
	"testing"

	"hetpnoc/internal/sim"
)

// naiveCredit is what advanceCredit replaces, written out: one addition
// per cycle until a packet's worth has accrued. It gives up after budget
// additions.
func naiveCredit(from sim.Cycle, credit, perCycle, bits float64, budget int) (at sim.Cycle, reached float64, ok bool) {
	for i := 0; i < budget; i++ {
		credit += perCycle
		if !(credit < bits) {
			return from + sim.Cycle(i), credit, true
		}
	}
	return 0, credit, false
}

// checkCreditChain holds advanceCredit to naiveCredit over emissions
// chained emissions, each starting from the credit the last one left
// over, bit for bit in both the cycle and the credit. An emission the
// naive loop cannot reach inside budget additions must lie beyond the
// budget for advanceCredit too, and ends the chain.
func checkCreditChain(t *testing.T, credit, perCycle, bits float64, emissions, budget int) {
	t.Helper()
	from := sim.Cycle(100)
	for e := 0; e < emissions; e++ {
		at, got := advanceCredit(from, credit, perCycle, bits)
		wantAt, want, ok := naiveCredit(from, credit, perCycle, bits, budget)
		if !ok {
			if at != never && at < from+sim.Cycle(budget) {
				t.Fatalf("emission %d from credit %g (+%g per cycle, packet %g): look-ahead emits at cycle %d, the loop has not after %d additions",
					e, credit, perCycle, bits, at-from, budget)
			}
			return
		}
		if at != wantAt || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("emission %d from credit %x (+%x per cycle, packet %g): look-ahead gives cycle %d credit %x, the loop cycle %d credit %x",
				e, credit, perCycle, bits, at-from, got, wantAt-from, want)
		}
		from, credit = at+1, got-bits
	}
}

func TestAdvanceCreditMatchesLoop(t *testing.T) {
	oddMantissa := 1 + 0x1p-52 // halfway between two floats of every binade above its own
	cases := []struct {
		name                   string
		credit, perCycle, bits float64
	}{
		{"bw1 at 5% load", 0, 0.2048, 2048},
		{"bw3 at 5% load", 0, 1.8432, 2048},
		{"saturated: a few cycles per packet", 0, 640, 2048},
		{"carry-over credit", 2047.999, 0.3, 2048},
		{"tie entering each coarser binade, step rounds down", 0, oddMantissa, 1 << 20},
		{"tie, step rounds up", 0, 3 + 0x1p-51, 1 << 20},
		{"tie from an odd credit: the first step rounds up, the rest down", 1024 + 0x1p-42, 1 + 0x1p-43, 2000},
		{"tie from an odd credit: the first step rounds down, the rest up", 1024 + 0x1p-42, 1 + 3*0x1p-43, 2000},
		{"a packet and more every cycle, surplus carried", 0, 3000.7, 2048},
		{"exactly a packet every cycle", 0, 2048, 2048},
		{"rate scaled by 2^40", 0, 5 * 0x1p40, 2048},
		{"subnormal rate and packet", 0, 3 * 0x1p-1074, 0x1p-1060},
		{"subnormal credit growing into the normal range", 0, 0x1p-1030, 0x1p-1015},
		{"a rate rounded to the credit's ulp of 256", 0x1p60, 300, 0x1p60 + 4096},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkCreditChain(t, tc.credit, tc.perCycle, tc.bits, 6, 1<<22)
			if at, _ := advanceCredit(0, tc.credit, tc.perCycle, tc.bits); at == never {
				t.Fatal("the case never emits")
			}
		})
	}
}

// TestAdvanceCreditNever: a credit that stops growing short of a packet
// is reported as such, at once, where the loop would spin forever.
func TestAdvanceCreditNever(t *testing.T) {
	cases := []struct {
		name                   string
		credit, perCycle, bits float64
	}{
		{"zero rate", 0, 0, 2048},
		{"rate below half an ulp of the credit", 0x1p60, 1, 0x1p62},
		{"rate half an ulp of an even credit", 0x1p53, 1, 0x1p62},
		{"credit grows through 2^52 sums of a binade, then stalls", 0, 1, 0x1p60},
		{"subnormal rate stalls below a normal packet", 0, 0x1p-1074, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			at, credit := advanceCredit(7, tc.credit, tc.perCycle, tc.bits)
			if at != never {
				t.Fatalf("look-ahead emits at cycle %d", at)
			}
			if credit+tc.perCycle != credit || credit >= tc.bits {
				t.Fatalf("look-ahead stopped at credit %g, which is not where the sum stalls", credit)
			}
			checkCreditChain(t, tc.credit, tc.perCycle, tc.bits, 1, 1<<16)
		})
	}
}

// TestAdvanceCreditRandom sweeps rates across forty binades against
// packets of the three bandwidth sets' sizes and a few odd ones.
func TestAdvanceCreditRandom(t *testing.T) {
	rng := sim.NewRNG(20231)
	packets := []float64{2048, 2047, 1 << 20, 3, 0.75}
	for i := 0; i < 20000; i++ {
		bits := packets[rng.Intn(len(packets))]
		perCycle := math.Ldexp(1+rng.Float64(), rng.Intn(40)-30) // [2^-30, 2^10)
		credit := rng.Float64() * bits
		budget := int(4*bits/perCycle) + 16
		if budget > 1<<16 {
			budget = 1 << 16
		}
		checkCreditChain(t, credit, perCycle, bits, 4, budget)
	}
}

// FuzzCreditAdvance holds advanceCredit to the loop on arbitrary floats;
// testdata/fuzz/FuzzCreditAdvance seeds it with the table's cases.
func FuzzCreditAdvance(f *testing.F) {
	f.Add(0.0, 0.2048, 2048.0)
	f.Fuzz(func(t *testing.T, credit, perCycle, bits float64) {
		// A source's credit lies in [0, packet) after an emission and its
		// rate is finite and non-negative; NewSource's callers validate
		// both.
		if !(bits > 0) || math.IsInf(bits, 0) || !(perCycle >= 0) || math.IsInf(perCycle, 0) || !(credit >= 0 && credit < bits) {
			t.Skip()
		}
		checkCreditChain(t, credit, perCycle, bits, 4, 1<<16)
	})
}
