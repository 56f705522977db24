package hetpnoc

import (
	"bytes"
	"math"
	"testing"
)

// TestFireflyDHetPNoCUniformDelivery is the §3.4 differential oracle:
// under uniform traffic every cluster's demand is equal, so d-HetPNoC's
// token-passing DBA converges on the same uniform wavelength split
// Firefly is hard-wired to, and the two architectures should deliver
// the same packets. For bandwidth sets 1 and 2 the equivalence is
// exact. For set 3 the selected-gating reservation flit encodes the
// (larger) wavelength IDs, so the reservation phase is one serialization
// step longer and delivery timing shifts by a handful of packets; there
// the oracle allows a 0.1% relative difference (measured: 6 of ~11000).
func TestFireflyDHetPNoCUniformDelivery(t *testing.T) {
	for set := 1; set <= 3; set++ {
		run := func(arch Architecture) Result {
			t.Helper()
			res, err := Run(Config{
				Architecture: arch,
				BandwidthSet: set,
				Traffic:      Traffic{Kind: UniformRandom},
				Cycles:       10000,
				WarmupCycles: 1000,
				Seed:         7,
			})
			if err != nil {
				t.Fatalf("set %d: %v", set, err)
			}
			return res
		}
		ff := run(Firefly)
		dh := run(DHetPNoC)
		if ff.PacketsDelivered == 0 {
			t.Fatalf("set %d: Firefly delivered nothing", set)
		}
		diff := math.Abs(float64(ff.PacketsDelivered - dh.PacketsDelivered))
		switch set {
		case 1, 2:
			if diff != 0 {
				t.Errorf("set %d: Firefly delivered %d packets, d-HetPNoC %d; want exact equality",
					set, ff.PacketsDelivered, dh.PacketsDelivered)
			}
		case 3:
			if rel := diff / float64(ff.PacketsDelivered); rel > 0.001 {
				t.Errorf("set %d: Firefly delivered %d packets, d-HetPNoC %d; relative difference %.4f exceeds 0.1%%",
					set, ff.PacketsDelivered, dh.PacketsDelivered, rel)
			}
		}
		// Injection is driven purely by the traffic processes, which are
		// architecture-independent: it must match exactly on every set.
		if ff.PacketsInjected != dh.PacketsInjected {
			t.Errorf("set %d: Firefly injected %d packets, d-HetPNoC %d",
				set, ff.PacketsInjected, dh.PacketsInjected)
		}
	}
}

// TestNormalizedCanonicalJSONStable: a config spelled with explicit
// defaults and one relying on zero values must share canonical bytes —
// that is what lets the serving cache deduplicate them.
func TestNormalizedCanonicalJSONStable(t *testing.T) {
	implicit := Config{}
	explicit := Config{
		Architecture: DHetPNoC,
		BandwidthSet: 1,
		Traffic:      Traffic{Kind: UniformRandom},
		LoadScale:    1.0,
		Cycles:       10000,
		WarmupCycles: 1000,
		Seed:         1,
	}
	a, err := implicit.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := explicit.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("implicit and explicit default configs encode differently:\n%s\n%s", a, b)
	}
}
