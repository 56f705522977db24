// Package traffic implements every workload of the thesis's evaluation:
// uniform-random traffic, the skewed patterns of Tables 3-1/3-2, the
// skewed-hotspot case studies of §3.4.2, and the real-application
// GPU/memory traffic derived from the internal/gpgpu profiles. It also
// provides the per-core injection sources used by the fabric.
package traffic

import (
	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
)

// BandwidthSet is one of the three photonic provisioning points of the
// evaluation (Tables 3-1 and 3-3): four application bandwidth classes, a
// total data-wavelength budget, and the packet framing used at that
// operating point.
type BandwidthSet struct {
	// Name identifies the set ("BW1", "BW2", "BW3").
	Name string

	// ClassGbps are the four application bandwidth classes, highest
	// first, matching the frequency tables' column order.
	ClassGbps [4]float64

	// TotalWavelengths is the aggregate data-wavelength budget shared by
	// both architectures (64, 256 or 512).
	TotalWavelengths int

	// Format is the packet framing of Table 3-3 for this set.
	Format packet.Format
}

// The three bandwidth sets of the evaluation, the provisioning points
// of Tables 3-1 and 3-3. They are written only here; every consumer
// copies the struct, and no other set exists, so nothing re-checks one
// (TestBandwidthSetsMatchTable3_3 holds their invariants).
var (
	// BWSet1: classes 12.5-100 Gb/s, 64 wavelengths, 64x32 b packets.
	BWSet1 = BandwidthSet{
		Name:             "BW1",
		ClassGbps:        [4]float64{100, 50, 25, 12.5},
		TotalWavelengths: 64,
		Format:           packet.Format{Flits: 64, FlitBits: 32},
	}

	// BWSet2: classes 50-400 Gb/s, 256 wavelengths, 16x128 b packets.
	BWSet2 = BandwidthSet{
		Name:             "BW2",
		ClassGbps:        [4]float64{400, 200, 100, 50},
		TotalWavelengths: 256,
		Format:           packet.Format{Flits: 16, FlitBits: 128},
	}

	// BWSet3: classes 100-800 Gb/s, 512 wavelengths, 8x256 b packets.
	BWSet3 = BandwidthSet{
		Name:             "BW3",
		ClassGbps:        [4]float64{800, 400, 200, 100},
		TotalWavelengths: 512,
		Format:           packet.Format{Flits: 8, FlitBits: 256},
	}
)

// BandwidthSets lists the three evaluation points in order.
func BandwidthSets() []BandwidthSet {
	return []BandwidthSet{BWSet1, BWSet2, BWSet3}
}

// WavelengthsFor returns the number of wavelengths an application of the
// given bandwidth needs: required bandwidth divided by the minimum channel
// bandwidth of one 12.5 Gb/s wavelength, rounded up (§3.4.1).
func WavelengthsFor(gbps float64) int {
	if gbps <= 0 {
		return 0
	}
	n := int(gbps / photonic.WavelengthGbps)
	if float64(n)*photonic.WavelengthGbps < gbps {
		n++
	}
	return n
}

// MaxChannelWavelengths returns the d-HetPNoC per-channel ceiling for this
// set (Table 3-3: 8, 32 or 64), which equals the wavelength need of the
// highest bandwidth class.
func (s BandwidthSet) MaxChannelWavelengths() int {
	return WavelengthsFor(s.ClassGbps[0])
}
