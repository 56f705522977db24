package xbar

import (
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// narrowAllocator owns 8 wavelengths per cluster but selects only 2 for
// every packet — the d-HetPNoC situation where the demand toward a
// destination is below the channel's allocation.
type narrowAllocator struct {
	inner  *Static
	narrow int
}

var _ Allocator = (*narrowAllocator)(nil)

func (n *narrowAllocator) Name() string                            { return "narrow" }
func (n *narrowAllocator) Tick(sim.Cycle)                          {}
func (n *narrowAllocator) SetDemand(topology.CoreID, []int)        {}
func (n *narrowAllocator) AllocatedCount(c topology.ClusterID) int { return n.inner.AllocatedCount(c) }
func (n *narrowAllocator) Allocated(c topology.ClusterID) []photonic.WavelengthID {
	return n.inner.Allocated(c)
}
func (n *narrowAllocator) SelectForPacket(topology.ClusterID, topology.ClusterID) int {
	return n.narrow
}

// TestSelectiveGatingPowersFewerDetectors: with GateSelected (d-HetPNoC)
// the destination powers only the selected wavelengths; with GateChannel
// (Firefly) it powers the source channel's full set — the §3.3.1 energy
// asymmetry.
func TestSelectiveGatingPowersFewerDetectors(t *testing.T) {
	measure := func(gating GatingMode) int {
		topo := topology.Default()
		bundle := mustBundle(t, 128) // 8 wavelengths per cluster
		ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
		ledger.StartMeasurement()
		var occ int64
		txPort, err := router.NewPort(16, 64, ledger, &occ)
		if err != nil {
			t.Fatal(err)
		}
		rxPort, err := router.NewPort(16, 64, ledger, &occ)
		if err != nil {
			t.Fatal(err)
		}
		static, err := NewStatic(bundle, 128)
		if err != nil {
			t.Fatal(err)
		}
		alloc := &narrowAllocator{inner: static, narrow: 2}
		rxs := make([]*RX, topo.Clusters())
		for cl := range rxs {
			rxs[cl] = NewRX(rxPort, ledger)
		}
		tx, err := NewTX(TXConfig{
			Cluster: 0, Clusters: topo.Clusters(), MaxFlits: 64, Bundle: bundle,
			Gating: gating,
		}, txPort, alloc, rxs, ledger, nil)
		if err != nil {
			t.Fatal(err)
		}

		pkt := &packet.Packet{ID: 1, Flits: 32, FlitBits: 32, SrcCluster: 0, DstCluster: 1}
		vc, ok := txPort.AllocVC(pkt.ID)
		if !ok {
			t.Fatal("no VC")
		}
		for i := 0; i < pkt.Flits; i++ {
			if err := txPort.Enqueue(vc, packet.FlitAt(pkt, i), 0); err != nil {
				t.Fatal(err)
			}
		}
		maxPowered := 0
		for now := sim.Cycle(0); now < 300; now++ {
			before := ledger.Counts()[photonic.EnergyIdleDetector]
			if err := tx.Tick(now); err != nil {
				t.Fatal(err)
			}
			maxPowered = max(maxPowered, poweredRows(ledger, before))
		}
		return maxPowered
	}

	selected := measure(GateSelected)
	channel := measure(GateChannel)
	if selected != 2 {
		t.Fatalf("selective gating powered %d detectors, want the 2 selected", selected)
	}
	if channel != 8 {
		t.Fatalf("channel gating powered %d detectors, want the full 8-wavelength channel", channel)
	}
}
