package fabric

import (
	"testing"

	"hetpnoc/internal/traffic"
)

// FuzzFabricValidateBuilds holds Validate to New over the knobs that
// hetpnoc.Config does not expose: a config Validate accepts must build.
// The knobs are int8, so a config Validate wrongly accepts stays small
// enough to build.
func FuzzFabricValidateBuilds(f *testing.F) {
	// The Table 3-3 defaults, on each architecture.
	for _, arch := range []Arch{DHetPNoC, Firefly, TorusPNoC} {
		f.Add(uint8(arch), uint8(0), int8(0), int8(0), int8(0), int8(0), int8(0), false, uint8(0))
	}
	// A restriction to two waveguides at BW1, which has one: Validate
	// once accepted it and New refused it.
	f.Add(uint8(DHetPNoC), uint8(0), int8(0), int8(0), int8(0), int8(0), int8(2), false, uint8(0))
	// One VC more than a port's occupancy mask holds.
	f.Add(uint8(Firefly), uint8(0), int8(65), int8(0), int8(0), int8(0), int8(0), false, uint8(0))
	f.Add(uint8(DHetPNoC), uint8(2), int8(2), int8(1), int8(4), int8(3), int8(4), true, uint8(Concentrated))

	sets := traffic.BandwidthSets()
	f.Fuzz(func(t *testing.T, arch, set uint8, vcs, queue, reserved, acquire, waveguides int8, proportional bool, intra uint8) {
		cfg := Config{
			Arch:                 Arch(arch % 4),
			Set:                  sets[int(set)%len(sets)],
			Pattern:              traffic.Uniform{},
			VCsPerPort:           int(vcs),
			SourceQueueLimit:     int(queue),
			ReservedPerCluster:   int(reserved),
			MaxAcquirePerVisit:   int(acquire),
			WaveguidesPerCluster: int(waveguides),
			ProportionalDBA:      proportional,
			IntraCluster:         IntraCluster(intra % 3),
		}.WithDefaults()
		if cfg.Validate() != nil {
			return
		}
		if _, err := New(cfg); err != nil {
			t.Fatalf("Validate accepts %+v, New refuses it: %v", cfg, err)
		}
	})
}
