package fabric

import (
	"fmt"
	"strconv"
	"testing"

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
}

// goldenCases covers all three architectures at bandwidth set 1, seed 1,
// under both uniform and skewed traffic (3,000 cycles, 500 warm-up) —
// none of which drops a packet — and two drop-heavy rows ("hotspot-drops",
// see goldenConfig) that keep the retransmission path under the same pin.
var goldenCases = []goldenCase{
	{"firefly", "uniform", 400, 795.072, 270.9575, 8819.472224999765, 0, 0, 0},
	{"firefly", "skewed2", 269, 537.408, 692.5353159851301, 13624.46479553866, 0, 0, 0},
	{"d-hetpnoc", "uniform", 400, 795.072, 270.9575, 8893.992224999693, 0, 0, 0},
	{"d-hetpnoc", "skewed2", 372, 759.008, 402.73655913978496, 10406.69037634387, 0, 0, 0},
	{"torus-pnoc", "uniform", 391, 799.104, 205.40153452685422, 8913.15686700745, 0, 0, 0},
	{"torus-pnoc", "skewed2", 397, 822.528, 284.1007556675063, 9743.069231737909, 0, 0, 0},
	{"firefly", "hotspot-drops", 304, 317.424, 2206.1875, 27631.193388156924, 462, 460, 2},
	{"d-hetpnoc", "hotspot-drops", 352, 358.944, 2189.2017045454545, 24825.702159090015, 425, 425, 0},
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
			got := goldenRow(res.Arch, gc.Pattern, res.Stats.PacketsDelivered, float64(res.Stats.DeliveredGbps), res.Stats.AvgLatencyCycles,
				float64(res.EnergyPerMessagePJ), res.Stats.PacketsDroppedRX, res.Stats.Retransmissions, res.Stats.PacketsLost)
			want := goldenRow(gc.Arch, gc.Pattern, gc.PacketsDelivered, gc.DeliveredGbps, gc.AvgLatencyCycles,
				gc.EPMpj, gc.PacketsDroppedRX, gc.Retransmissions, gc.PacketsLost)
			if got != want {
				t.Errorf("the run drifted from its golden row; for an intended change, replace\n\t%s\nin goldenCases with\n\t%s", want, got)
			}
		})
	}
}

// goldenRow formats one goldenCases literal.
func goldenRow(arch, pattern string, delivered int64, gbps, latency, epm float64, droppedRX, retransmissions, lost int64) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("{%q, %q, %d, %s, %s, %s, %d, %d, %d},", arch, pattern, delivered, g(gbps), g(latency), g(epm), droppedRX, retransmissions, lost)
}
