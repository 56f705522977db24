package fabric

import (
	"math/bits"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// buildTestFabric constructs (but does not run) a fabric.
func buildTestFabric(t *testing.T, intra IntraCluster) *Fabric {
	t.Helper()
	f, err := New(Config{
		Arch:         DHetPNoC,
		Pattern:      traffic.Uniform{},
		IntraCluster: intra,
		Cycles:       100, WarmupCycles: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAllToAllClusterShape(t *testing.T) {
	f := buildTestFabric(t, AllToAll)
	if len(f.clusters) != 16 {
		t.Fatalf("%d clusters, want 16", len(f.clusters))
	}
	for cl, c := range f.clusters {
		// One switch per core plus the photonic router.
		if len(c.switches) != 4 {
			t.Fatalf("cluster %d has %d switches, want 4", cl, len(c.switches))
		}
		// Each core switch: eject + 3 peers + photonic router = 5 outputs.
		for i, sw := range c.switches {
			if got := sw.Outputs(); got != 5 {
				t.Fatalf("cluster %d switch %d has %d outputs, want 5", cl, i, got)
			}
		}
		// Photonic router: 4 local + transmit = 5 outputs.
		if got := c.photonic.Outputs(); got != 5 {
			t.Fatalf("cluster %d photonic router has %d outputs, want 5", cl, got)
		}
		if c.txPort == nil {
			t.Fatalf("cluster %d has no transmit port", cl)
		}
	}
	// 64 core switches + 16 photonic routers tick each cycle.
	if got := len(f.routers); got != 80 {
		t.Fatalf("%d routers, want 80", got)
	}
}

func TestConcentratedClusterShape(t *testing.T) {
	f := buildTestFabric(t, Concentrated)
	for cl, c := range f.clusters {
		if len(c.switches) != 1 {
			t.Fatalf("cluster %d has %d switches, want 1 concentrated", cl, len(c.switches))
		}
		// 4 ejects + photonic router = 5 outputs.
		if got := c.switches[0].Outputs(); got != 5 {
			t.Fatalf("cluster %d switch has %d outputs, want 5", cl, got)
		}
		// Photonic router: to switch + transmit = 2 outputs.
		if got := c.photonic.Outputs(); got != 2 {
			t.Fatalf("cluster %d photonic router has %d outputs, want 2", cl, got)
		}
	}
	if got := len(f.routers); got != 32 {
		t.Fatalf("%d routers, want 32 (16 switches + 16 photonic)", got)
	}
}

func TestEveryCoreHasPorts(t *testing.T) {
	for _, intra := range []IntraCluster{AllToAll, Concentrated} {
		f := buildTestFabric(t, intra)
		for c, cs := range f.cores {
			if cs.injectPort == nil || cs.ejectPort == nil {
				t.Fatalf("%v: core %d missing ports", intra, c)
			}
		}
	}
}

// TestPeerLinksCarryTraffic drives one packet core 0 -> core 3 (same
// cluster) through the all-to-all peer wiring and watches it arrive
// without touching the photonic channels.
func TestPeerLinksCarryTraffic(t *testing.T) {
	f, err := New(Config{
		Arch:    DHetPNoC,
		Pattern: traffic.Custom{Cores: make([]traffic.CustomCore, chip.Cores())},
		Cycles:  300, WarmupCycles: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Craft a same-cluster packet and place it in core 0's queue.
	f.pktIDs++
	f.msgIDs++
	pkt := f.pool.Get()
	*pkt = packet.Packet{
		ID: f.pktIDs, Message: f.msgIDs,
		Src: 0, Dst: 3, SrcCluster: 0, DstCluster: 0,
		Flits: 8, FlitBits: 32, Attempt: 1,
	}
	f.enqueueAtSource(0, pkt)

	for i := 0; i < 200; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Totals().Delivered; got != 1 {
		t.Fatalf("delivered %d packets, want the peer packet", got)
	}
	// Nothing photonic was involved.
	for cl, tx := range f.txs {
		if tx.BusyCycles() != 0 {
			t.Fatalf("cluster %d photonic channel busy for an intra-cluster packet", cl)
		}
	}
}

// TestRoutesMatchWiring walks every routing decision against the wiring
// it indexes into. In both intra-cluster modes, a one-flit packet buffered
// at any core's inject port must surface — carried there by nothing but
// the cluster's routers, each following its routing function's output to
// whatever port is attached at that index — at the destination core's
// eject port when the destination is in the cluster, and at the cluster's
// transmit port when it is not; and one delivered into the photonic
// router's receive input must surface at its destination's eject port.
// No path inside a cluster is longer than two routers, so a detour through
// a wrong switch that a later hop corrects fails too.
func TestRoutesMatchWiring(t *testing.T) {
	for _, intra := range []IntraCluster{AllToAll, Concentrated} {
		f := buildTestFabric(t, intra)
		now := sim.Cycle(0)
		var ids packet.ID
		for _, c := range f.clusters {
			routers := append([]*router.Router{c.photonic}, c.switches...)
			terminals := []*router.Port{c.txPort}
			for _, core := range chip.CoresOf(c.id) {
				terminals = append(terminals, f.cores[core].ejectPort)
			}
			// walk buffers a packet for dst at from, ticks the cluster's
			// routers until it reaches a terminal port, and removes it.
			walk := func(from *router.Port, dst topology.CoreID) *router.Port {
				t.Helper()
				ids++
				pkt := f.pool.Get()
				*pkt = packet.Packet{ID: ids, Dst: dst, DstCluster: chip.ClusterOf(dst), Flits: 1, FlitBits: 32}
				vc, ok := from.AllocVC(pkt.ID)
				if !ok {
					t.Fatal("no free VC on an idle fabric")
				}
				if err := from.Enqueue(vc, packet.FlitAt(pkt, 0), now); err != nil {
					t.Fatal(err)
				}
				for deadline := now + 2*router.PipelineDelay + 1; now < deadline; now++ {
					for _, r := range routers {
						if err := r.Tick(now); err != nil {
							t.Fatal(err)
						}
					}
					for _, p := range terminals {
						if p.BufferedFlits() == 0 {
							continue
						}
						if _, err := p.Pop(bits.TrailingZeros64(p.OccupiedMask())); err != nil {
							t.Fatal(err)
						}
						if f.occupancy != 0 {
							t.Fatalf("%d flits left behind by a one-flit packet", f.occupancy)
						}
						return p
					}
				}
				t.Fatalf("%v: packet for core %d is not out of cluster %d's routers after two hops", intra, dst, c.id)
				return nil
			}
			for dst := topology.CoreID(0); int(dst) < chip.Cores(); dst++ {
				local := chip.ClusterOf(dst) == c.id
				want, name := c.txPort, "the transmit port"
				if local {
					want, name = f.cores[dst].ejectPort, "its eject port"
				}
				for _, src := range chip.CoresOf(c.id) {
					if got := walk(f.cores[src].injectPort, dst); got != want {
						t.Fatalf("%v: core %d -> core %d did not reach %s", intra, src, dst, name)
					}
				}
				if local {
					if got := walk(c.rxInputPort(chip.ClusterSize(), intra), dst); got != want {
						t.Fatalf("%v: received packet for core %d did not reach %s", intra, dst, name)
					}
				}
			}
		}
	}
}

// TestIntraClusterLatencyIsOneHop: a same-cluster packet crosses exactly
// one electrical switch hop, so at light load its latency is far below the
// photonic serialization bound.
func TestIntraClusterLatencyIsOneHop(t *testing.T) {
	cores := make([]traffic.CustomCore, chip.Cores())
	// Only core 0 sends, to its cluster peer core 1.
	cores[0] = traffic.CustomCore{RateGbps: 10, DemandGbps: 40, Dests: []topology.CoreID{1}}
	res := runConfig(t, Config{
		Arch:    DHetPNoC,
		Pattern: traffic.Custom{Cores: cores},
		Cycles:  4000, WarmupCycles: 500, Seed: 31,
	})
	if res.Stats.PacketsDelivered == 0 {
		t.Fatal("no peer packets delivered")
	}
	// 64 flits entering at 2/cycle (32 cycles) plus two router
	// traversals and the 2-flit/cycle ejection: ~70 cycles end to end.
	// The photonic path would additionally pay >102 cycles of 20 b/cycle
	// serialization, so anything below that proves the electrical
	// shortcut was taken.
	if res.Stats.AvgLatencyCycles > 100 {
		t.Fatalf("intra-cluster latency %.1f cycles, want a single electrical hop", res.Stats.AvgLatencyCycles)
	}
}
