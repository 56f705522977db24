package fabric

import (
	"fmt"
	"strconv"
	"testing"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/traffic"
)

// goldenCase pins the headline Result fields of one short reference run.
// The values were recorded from the pre-optimization simulator (PR 1) and
// must never drift: performance work on the cycle loop is only acceptable
// when the simulation stays bit-identical. TestGoldenResults prints the
// replacement goldenCases literal of every row that drifts; paste those
// only alongside an intentional behaviour change.
type goldenCase struct {
	Arch    string
	Pattern string

	PacketsDelivered int64
	DeliveredGbps    float64
	AvgLatencyCycles float64
	EPMpj            float64

	// The §1.4 drop-and-retransmit path, inside the measurement window.
	PacketsDroppedRX int64
	Retransmissions  int64
	PacketsLost      int64

	// The ledger's exact counts, in photonic.Components order: integers
	// that are the same on every GOARCH and catch a change in one
	// component that the EPMpj sum could hide.
	Counts [8]int64
}

// goldenCases covers all three architectures at bandwidth set 1, seed 1,
// under both uniform and skewed traffic (3,000 cycles, 500 warm-up) —
// none of which drops a packet — and two drop-heavy rows ("hotspot-drops",
// see goldenConfig) that keep the retransmission path under the same pin.
var goldenCases = []goldenCase{
	{"firefly", "uniform", 400, 795.072, 270.9575, 8819.472225, 0, 0, 0, [8]int64{800048, 1624096, 795648, 9498816, 170430240, 3163008, 1581536, 281216}},
	{"firefly", "skewed2", 269, 537.408, 692.5353159851301, 13624.464795539032, 0, 0, 0, [8]int64{540399, 1096938, 537440, 7747136, 649628608, 2629152, 1413920, 205212}},
	{"d-hetpnoc", "uniform", 400, 795.072, 270.9575, 8893.992225, 0, 0, 0, [8]int64{929648, 1883296, 795648, 9498816, 170430240, 3163008, 1581536, 281216}},
	{"d-hetpnoc", "skewed2", 372, 759.008, 402.73655913978496, 10406.690376344086, 0, 0, 0, [8]int64{896365, 1815590, 758944, 9691936, 325869984, 3269248, 1635840, 294852}},
	{"torus-pnoc", "uniform", 391, 799.104, 205.40153452685422, 8913.156867007672, 0, 0, 0, [8]int64{801472, 1602944, 801472, 9531712, 130611136, 3184475, 1585952, 357184}},
	{"torus-pnoc", "skewed2", 397, 822.528, 284.1007556675063, 9743.069231738036, 0, 0, 0, [8]int64{828928, 1657856, 828928, 10151168, 240118528, 3410837, 1700128, 279040}},
	{"firefly", "hotspot-drops", 304, 317.424, 2206.1875, 27631.1933881579, 462, 460, 2, [8]int64{1593196, 3232712, 1584704, 13556448, 2259386912, 4504512, 2277632, 626440}},
	{"d-hetpnoc", "hotspot-drops", 352, 358.944, 2189.2017045454545, 24825.70215909091, 425, 425, 0, [8]int64{1866633, 3780246, 1596192, 14170240, 2316403808, 4705088, 2383904, 628498}},
}

// dropStormConfig is the drop-heavy operating point shared by the
// "hotspot-drops" golden rows and BenchmarkFabricStep/Drops: two VCs per
// port and half of all traffic aimed at one cluster at 1.5x load, so
// receivers run out of VCs and the §1.4 drop / back-off / retransmit path
// fires a few hundred times (and, on Firefly, exhausts a retry budget).
func dropStormConfig(arch Arch) Config {
	return Config{
		Arch:         arch,
		Set:          traffic.BWSet1,
		Pattern:      traffic.SkewedHotspot{Index: 4, HotFraction: 0.5, BaseLevel: 3},
		LoadScale:    1.5,
		VCsPerPort:   2,
		Cycles:       6000,
		WarmupCycles: 1000,
		Seed:         11,
	}
}

func goldenConfig(t *testing.T, gc goldenCase) Config {
	t.Helper()
	arch, archOK := map[string]Arch{Firefly.String(): Firefly, DHetPNoC.String(): DHetPNoC, TorusPNoC.String(): TorusPNoC}[gc.Arch]
	pattern, patternOK := map[string]traffic.Pattern{"uniform": traffic.Uniform{}, "skewed2": traffic.Skewed{Level: 2}, "hotspot-drops": nil}[gc.Pattern]
	switch {
	case !archOK || !patternOK:
		t.Fatalf("unknown golden row %s/%s", gc.Arch, gc.Pattern)
	case pattern == nil:
		return dropStormConfig(arch)
	}
	return Config{Arch: arch, Set: traffic.BWSet1, Pattern: pattern, Cycles: 3000, WarmupCycles: 500, Seed: 1}
}

// TestGoldenResults asserts that every reference run still produces exactly
// the recorded headline numbers. Each run is printed as its goldenCases
// literal, floating-point fields in shortest round-trip form, and compared
// with its row's, so even a reordering of energy or latency accumulation
// fails the test, which then prints the literal to paste.
func TestGoldenResults(t *testing.T) {
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.Arch+"/"+gc.Pattern, func(t *testing.T) {
			t.Parallel()
			f, err := New(goldenConfig(t, gc))
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run()
			if err != nil {
				t.Fatal(err)
			}
			run := goldenCase{
				Arch: res.Arch, Pattern: gc.Pattern,
				PacketsDelivered: res.Stats.PacketsDelivered, DeliveredGbps: float64(res.Stats.DeliveredGbps),
				AvgLatencyCycles: res.Stats.AvgLatencyCycles, EPMpj: float64(res.EnergyPerMessagePJ),
				PacketsDroppedRX: res.Stats.PacketsDroppedRX, Retransmissions: res.Stats.Retransmissions, PacketsLost: res.Stats.PacketsLost,
			}
			for i, c := range photonic.Components() {
				run.Counts[i] = res.EnergyCounts[c]
			}
			if got, want := run.literal(), gc.literal(); got != want {
				t.Errorf("the run drifted from its golden row; for an intended change, replace\n\t%s\nin goldenCases with\n\t%s", want, got)
			}
		})
	}
}

// literal formats gc as its goldenCases line.
func (gc goldenCase) literal() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("{%q, %q, %d, %s, %s, %s, %d, %d, %d, %#v},", gc.Arch, gc.Pattern, gc.PacketsDelivered,
		g(gc.DeliveredGbps), g(gc.AvgLatencyCycles), g(gc.EPMpj), gc.PacketsDroppedRX, gc.Retransmissions, gc.PacketsLost, gc.Counts)
}
