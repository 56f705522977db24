package fabric

import (
	"testing"
	"testing/quick"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// TestFlitConservationUnderRandomConfigs is the end-to-end conservation
// property: for random seeds, patterns, architectures, bandwidth sets
// and load scales, every packet that entered a source queue is — at any
// cycle boundary — in exactly one of three states: delivered, lost
// after exhausting retries, or still in flight (source queues, router
// buffers, photonic channels, retry timers). The un-gated Totals
// counters balance against the pool's live count:
//
//	Injected == Delivered + Lost + LivePackets
//
// A leaked packet, a double-recycle, or a terminal path that skips its
// counter all unbalance the equation. The same sweep also checks the
// Table 3-3 photonic caps via checkWavelengthCaps.
//
// The property test samples random configs on purpose; each trial
// seeds its own sim from quick's arguments, so the run stays
// replayable from the printed counterexample.
func TestFlitConservationUnderRandomConfigs(t *testing.T) {
	maxCount := 10
	if testing.Short() {
		maxCount = 4
	}
	patterns := []traffic.Pattern{
		traffic.Uniform{},
		traffic.Skewed{Level: 1},
		traffic.Skewed{Level: 3},
		traffic.SkewedHotspot{HotFraction: 0.2, BaseLevel: 2},
		traffic.RealApp{},
		traffic.Permutation{Kind: traffic.Transpose},
		traffic.Bursty{Base: traffic.Uniform{}, Factor: 3},
	}
	sets := []traffic.BandwidthSet{traffic.BWSet1, traffic.BWSet2, traffic.BWSet3}
	archs := []Arch{Firefly, DHetPNoC, TorusPNoC}
	loads := []float64{0.5, 1.0, 2.0, 4.0}

	run := func(seed uint64, patSel, setSel, archSel, loadSel uint8) bool {
		cfg := Config{
			Pattern:      patterns[int(patSel)%len(patterns)],
			Set:          sets[int(setSel)%len(sets)],
			Arch:         archs[int(archSel)%len(archs)],
			LoadScale:    loads[int(loadSel)%len(loads)],
			Cycles:       4096,
			WarmupCycles: 512,
			Seed:         seed,
		}
		f, err := New(cfg)
		if err != nil {
			t.Logf("New: %v", err)
			return false
		}
		// Check the balance at several mid-run boundaries, not just at
		// the end: a transient imbalance (e.g. a drop path recycling a
		// packet twice) can cancel out by quiescence.
		for burst := 0; burst < 4; burst++ {
			for i := 0; i < 1024; i++ {
				if err := f.Step(); err != nil {
					t.Logf("Step: %v", err)
					return false
				}
			}
			tot := f.Totals()
			live := f.LivePackets()
			if live < 0 {
				t.Logf("negative live packet count %d", live)
				return false
			}
			if tot.Injected != tot.Delivered+tot.Lost+live {
				t.Logf("conservation violated: injected %d != delivered %d + lost %d + live %d (%+v)",
					tot.Injected, tot.Delivered, tot.Lost, live, tot)
				return false
			}
			if tot.DroppedRX != tot.Retransmitted+tot.Lost {
				t.Logf("drop accounting violated: dropped %d != retransmitted %d + lost %d",
					tot.DroppedRX, tot.Retransmitted, tot.Lost)
				return false
			}
			if !checkWavelengthCaps(t, f, cfg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Fatal(err)
	}
}

// checkWavelengthCaps asserts the photonic provisioning invariants of
// Table 3-3 on the fabric's current allocation: no wavelength owned by
// two write channels, no channel above the per-channel ceiling or below
// the reserved minimum (d-HetPNoC), and no waveguide carrying more than
// the 64-wavelength DWDM cap.
func checkWavelengthCaps(t *testing.T, f *Fabric, cfg Config) bool {
	t.Helper()
	clusters := chip.Clusters()
	bundle := f.bundle
	owned := make([]bool, bundle.Capacity())
	perWaveguide := make([]int, bundle.Waveguides)
	for cl := 0; cl < clusters; cl++ {
		ids := f.AllocatedOf(topology.ClusterID(cl))
		if f.cfg.Arch == DHetPNoC {
			if max := f.cfg.Set.MaxChannelWavelengths(); len(ids) > max {
				t.Logf("cluster %d owns %d wavelengths, channel ceiling is %d", cl, len(ids), max)
				return false
			}
			if len(ids) < f.cfg.ReservedPerCluster {
				t.Logf("cluster %d owns %d wavelengths, reserved minimum is %d", cl, len(ids), f.cfg.ReservedPerCluster)
				return false
			}
		}
		for _, id := range ids {
			if id.Wavelength >= photonic.MaxWavelengthsPerWaveguide {
				t.Logf("wavelength %v beyond the %d-lambda DWDM cap", id, photonic.MaxWavelengthsPerWaveguide)
				return false
			}
			slot := bundle.SlotForID(id)
			if slot < 0 || slot >= len(owned) {
				t.Logf("wavelength %v outside the bundle", id)
				return false
			}
			if owned[slot] {
				t.Logf("wavelength %v owned by two clusters", id)
				return false
			}
			owned[slot] = true
			perWaveguide[id.Waveguide]++
		}
	}
	for wg, n := range perWaveguide {
		if n > photonic.MaxWavelengthsPerWaveguide {
			t.Logf("waveguide %d carries %d wavelengths, DWDM cap is %d", wg, n, photonic.MaxWavelengthsPerWaveguide)
			return false
		}
	}
	return true
}
