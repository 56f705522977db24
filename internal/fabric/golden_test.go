package fabric

import (
	"strconv"
	"testing"

	"hetpnoc/internal/traffic"
)

// goldenCase pins the headline Result fields of one short reference run.
// The values were recorded from the pre-optimization simulator (PR 1) and
// must never drift: performance work on the cycle loop is only acceptable
// when the simulation stays bit-identical. Regenerate deliberately with
//
//	go run ./internal/fabric/goldengen
//
// and only commit new values alongside an intentional behaviour change.
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

func goldenArch(t *testing.T, name string) Arch {
	t.Helper()
	for _, a := range []Arch{Firefly, DHetPNoC, TorusPNoC} {
		if a.String() == name {
			return a
		}
	}
	t.Fatalf("unknown architecture %q", name)
	return 0
}

func goldenPattern(t *testing.T, name string) traffic.Pattern {
	t.Helper()
	switch name {
	case "uniform":
		return traffic.Uniform{}
	case "skewed2":
		return traffic.Skewed{Level: 2}
	}
	t.Fatalf("unknown pattern %q", name)
	return nil
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
	arch := goldenArch(t, gc.Arch)
	if gc.Pattern == "hotspot-drops" {
		return dropStormConfig(arch)
	}
	return Config{
		Arch:         arch,
		Set:          traffic.BWSet1,
		Pattern:      goldenPattern(t, gc.Pattern),
		Cycles:       3000,
		WarmupCycles: 500,
		Seed:         1,
	}
}

// TestGoldenResults asserts that every reference run still produces exactly
// the recorded headline numbers. Floating-point fields are compared
// bit-exactly (via shortest round-trip formatting), so even a reordering of
// energy or latency accumulation fails the test.
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
			for _, c := range []struct {
				field     string
				got, want int64
			}{
				{"PacketsDelivered", res.Stats.PacketsDelivered, gc.PacketsDelivered},
				{"PacketsDroppedRX", res.Stats.PacketsDroppedRX, gc.PacketsDroppedRX},
				{"Retransmissions", res.Stats.Retransmissions, gc.Retransmissions},
				{"PacketsLost", res.Stats.PacketsLost, gc.PacketsLost},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, golden %d", c.field, c.got, c.want)
				}
			}
			assertGoldenFloat(t, "DeliveredGbps", float64(res.Stats.DeliveredGbps), gc.DeliveredGbps)
			assertGoldenFloat(t, "AvgLatencyCycles", res.Stats.AvgLatencyCycles, gc.AvgLatencyCycles)
			assertGoldenFloat(t, "EnergyPerMessagePJ", float64(res.EnergyPerMessagePJ), gc.EPMpj)
		})
	}
}

func assertGoldenFloat(t *testing.T, field string, got, want float64) {
	t.Helper()
	if strconv.FormatFloat(got, 'g', -1, 64) != strconv.FormatFloat(want, 'g', -1, 64) {
		t.Errorf("%s = %s, golden %s", field,
			strconv.FormatFloat(got, 'g', -1, 64),
			strconv.FormatFloat(want, 'g', -1, 64))
	}
}
