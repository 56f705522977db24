// Command goldengen regenerates the golden values pinned by
// internal/fabric/golden_test.go: the headline Result fields of six short
// reference runs (three architectures x two traffic patterns at bandwidth
// set 1, seed 1) and of the two drop-heavy "hotspot-drops" runs (Firefly
// and d-HetPNoC; the config mirrors dropStormConfig in golden_test.go).
// Run it only when an intentional behaviour change makes the recorded
// values obsolete, and paste its output over the goldenCases table:
//
//	go run ./internal/fabric/goldengen
package main

import (
	"fmt"
	"strconv"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

func main() {
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC, fabric.TorusPNoC} {
		for _, pat := range []traffic.Pattern{traffic.Uniform{}, traffic.Skewed{Level: 2}} {
			row(pat.Name(), fabric.Config{
				Arch:         arch,
				Set:          traffic.BWSet1,
				Pattern:      pat,
				Cycles:       3000,
				WarmupCycles: 500,
				Seed:         1,
			})
		}
	}
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
		row("hotspot-drops", fabric.Config{
			Arch:         arch,
			Set:          traffic.BWSet1,
			Pattern:      traffic.SkewedHotspot{Index: 4, HotFraction: 0.5, BaseLevel: 3},
			LoadScale:    1.5,
			VCsPerPort:   2,
			Cycles:       6000,
			WarmupCycles: 1000,
			Seed:         11,
		})
	}
}

// row runs cfg and prints one goldenCases literal under the given
// pattern label.
func row(pattern string, cfg fabric.Config) {
	f, err := fabric.New(cfg)
	if err != nil {
		panic(err)
	}
	res, err := f.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("{%q, %q, %d, %s, %s, %s, %d, %d, %d},\n",
		res.Arch, pattern,
		res.Stats.PacketsDelivered,
		strconv.FormatFloat(float64(res.Stats.DeliveredGbps), 'g', -1, 64),
		strconv.FormatFloat(res.Stats.AvgLatencyCycles, 'g', -1, 64),
		strconv.FormatFloat(float64(res.EnergyPerMessagePJ), 'g', -1, 64),
		res.Stats.PacketsDroppedRX, res.Stats.Retransmissions, res.Stats.PacketsLost)
}
