package traffic

import (
	"math"
	"testing"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/units"
)

// checkCreditChain holds advanceCredit to the loop it replaces — add
// perCycle once per cycle until a packet's worth has accrued — over
// emissions chained emissions, each starting from the credit the last
// one carried over. The cycles must agree, and the credits too unless
// the carry exceeds a packet (advanceCredit keeps it at the packet). An
// emission the loop does not reach within budget additions must lie
// beyond the budget for advanceCredit too.
func checkCreditChain(t *testing.T, credit, perCycle, bits units.BitCredit, emissions, budget int) {
	t.Helper()
	from := sim.Cycle(100)
	for e := 0; e < emissions; e++ {
		at, got := advanceCredit(from, credit, perCycle, bits)
		want, n := credit, 0
		for n < budget && (n == 0 || want < bits) {
			want += perCycle
			n++
		}
		if want < bits {
			if at < from+sim.Cycle(budget) {
				t.Fatalf("emission %d from credit %d (+%d per cycle, packet %d): division emits at cycle %d, the loop not in %d",
					e, credit, perCycle, bits, at-from, budget)
			}
			return
		}
		if at != from+sim.Cycle(n-1) || credit <= bits && got != want {
			t.Fatalf("emission %d from credit %d (+%d per cycle, packet %d): division gives cycle %d credit %d, the loop cycle %d credit %d",
				e, credit, perCycle, bits, at-from, got, n-1, want)
		}
		from, credit = at+1, got-bits
	}
}

// credits converts a case's bit amounts as NewSource converts a rate,
// and reports whether a credit count holds all three.
func credits(credit, perCycle, bits float64) (c, p, b units.BitCredit, ok bool) {
	var errs [3]error
	c, errs[0] = units.CreditOf(credit)
	p, errs[1] = units.CreditOf(perCycle)
	b, errs[2] = units.CreditOf(bits)
	return c, p, b, errs == [3]error{}
}

// TestAdvanceCreditMatchesLoop runs the cases of the float credit in
// fixed point. Each rate rounds once, so the ties that the float sums
// broke by parity are gone; the subnormal, 2^40 and coarse-binade cases
// lie outside the credit range and are refused, as NewSource refuses
// them.
func TestAdvanceCreditMatchesLoop(t *testing.T) {
	oddMantissa := 1 + 0x1p-52
	cases := []struct {
		name                   string
		credit, perCycle, bits float64
		refused                bool
	}{
		{"bw1 at 5% load", 0, 0.2048, 2048, false},
		{"bw3 at 5% load", 0, 1.8432, 2048, false},
		{"saturated: a few cycles per packet", 0, 640, 2048, false},
		{"carry-over credit", 2047.999, 0.3, 2048, false},
		{"tie entering each coarser binade, step rounds down", 0, oddMantissa, 1 << 20, false},
		{"tie, step rounds up", 0, 3 + 0x1p-51, 1 << 20, false},
		{"tie from an odd credit: the first step rounds up, the rest down", 1024 + 0x1p-42, 1 + 0x1p-43, 2000, false},
		{"tie from an odd credit: the first step rounds down, the rest up", 1024 + 0x1p-42, 1 + 3*0x1p-43, 2000, false},
		{"a packet and more every cycle, surplus carried", 0, 3000.7, 2048, false},
		{"exactly a packet every cycle", 0, 2048, 2048, false},
		{"a bursty bank far above a packet", 1 << 29, 0.5, 2048, false},
		{"rate scaled by 2^40", 0, 5 * 0x1p40, 2048, true},
		{"subnormal rate and packet", 0, 3 * 0x1p-1074, 0x1p-1060, true},
		{"subnormal credit growing into the normal range", 0, 0x1p-1030, 0x1p-1015, true},
		{"a rate rounded to the credit's ulp of 256", 0x1p60, 300, 0x1p60 + 4096, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			credit, perCycle, bits, ok := credits(tc.credit, tc.perCycle, tc.bits)
			if ok == tc.refused {
				t.Fatalf("converted to credit: %v, want %v", ok, !tc.refused)
			}
			if ok {
				checkCreditChain(t, credit, perCycle, bits, 6, 1<<22)
			}
		})
	}
}

// TestAdvanceCreditNever: a zero rate never emits, and says so at once.
// The float sums that stalled short of a packet are refused at
// conversion, so no credit stops growing.
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
			credit, perCycle, bits, ok := credits(tc.credit, tc.perCycle, tc.bits)
			if ok != (tc.perCycle == 0) {
				t.Fatalf("converted to credit: %v, want only a zero rate converted", ok)
			}
			if at, got := advanceCredit(7, credit, perCycle, bits); ok && (at != never || got != credit) {
				t.Fatalf("a zero rate emits at cycle %d with credit %d", at, got)
			}
		})
	}
}

// TestAdvanceCreditRandom sweeps rates across forty binades against
// packets of the three bandwidth sets' sizes and a few odd ones.
func TestAdvanceCreditRandom(t *testing.T) {
	rng := sim.NewRNG(20231)
	packets := []float64{2048, 2047, 1 << 20, 3, 0.75}
	for i := 0; i < 20000; i++ {
		packet := packets[rng.Intn(len(packets))]
		rate := math.Ldexp(1+rng.Float64(), rng.Intn(40)-30) // [2^-30, 2^10)
		credit, perCycle, bits, ok := credits(rng.Float64()*packet, rate, packet)
		if !ok {
			t.Fatalf("rate %g or packet %g refused", rate, packet)
		}
		checkCreditChain(t, credit, perCycle, bits, 4, min(int(4*packet/rate)+16, 1<<16))
	}
}

// FuzzCreditAdvance holds advanceCredit to the loop on arbitrary credits,
// rates and packets in units of 2^-32 bit. testdata/fuzz/FuzzCreditAdvance
// keeps the names of the float credit's corpus: each entry is its case in
// fixed point or, where that lies outside the credit range (subnormal,
// coarse-ulp, rate-2e40, stalls-*), the like case at that end of the
// range.
func FuzzCreditAdvance(f *testing.F) {
	f.Add(int64(0), int64(879609302), int64(2048<<32)) // bw1 at 5% load
	f.Fuzz(func(t *testing.T, credit, perCycle, bits int64) {
		// A packet and a rate lie in units.CreditOf's range, a credit
		// below a bursty source's cap.
		if bits <= 0 || perCycle <= 0 || credit < 0 || max(bits, perCycle, credit) >= int64(units.MaxCredit) {
			t.Skip()
		}
		checkCreditChain(t, units.BitCredit(credit), units.BitCredit(perCycle), units.BitCredit(bits), 4, 1<<16)
	})
}
