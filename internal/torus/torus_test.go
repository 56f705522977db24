package torus

import (
	"testing"
	"testing/quick"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/xbar"
)

// rig builds a 16-node torus with direct access to the transmit ports and
// receive engines.
type rig struct {
	net    *Network
	arena  *router.Arena // backs every port of the rig
	tx     []*router.Port
	rxPort []*router.Port
	ledger *photonic.Ledger
	occ    int64
	drops  []*packet.Packet
}

func newRig(t *testing.T) *rig {
	t.Helper()
	bundle, err := photonic.NewBundle(64)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{ledger: photonic.NewLedger(photonic.DefaultEnergyParams())}
	r.arena, err = router.NewArena(r.ledger, &r.occ)
	if err != nil {
		t.Fatal(err)
	}
	rxs := make([]*xbar.RX, 16)
	for i := 0; i < 16; i++ {
		txp, err := r.arena.NewPort(16, 64)
		if err != nil {
			t.Fatal(err)
		}
		rxp, err := r.arena.NewPort(16, 64)
		if err != nil {
			t.Fatal(err)
		}
		r.tx = append(r.tx, txp)
		r.rxPort = append(r.rxPort, rxp)
		rxs[i] = xbar.NewRX(rxp, r.ledger)
	}
	net, err := New(Config{
		Nodes:              16,
		Bundle:             bundle,
		ClockHz:            2.5e9,
		SetupHopCycles:     4,
		RetryBackoffCycles: 16,
		MaxFlits:           64,
	}, r.tx, rxs, r.ledger, func(p *packet.Packet, _ sim.Cycle) {
		r.drops = append(r.drops, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	r.net = net
	return r
}

func (r *rig) send(t *testing.T, id packet.ID, src, dst, flits int, now sim.Cycle) {
	t.Helper()
	pkt := &packet.Packet{
		ID: id, Flits: flits, FlitBits: 32,
		SrcCluster: topology.ClusterID(src), DstCluster: topology.ClusterID(dst),
	}
	vc, ok := r.tx[src].AllocVC(pkt.ID)
	if !ok {
		t.Fatal("no TX VC")
	}
	for i := 0; i < flits; i++ {
		if err := r.tx[src].Enqueue(vc, packet.FlitAt(pkt, i), now); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *rig) run(t *testing.T, from, to sim.Cycle) {
	t.Helper()
	for now := from; now < to; now++ {
		if err := r.net.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouteDimensionOrder checks XY routing with wrap-around shortest
// paths on the 4x4 folded torus.
func TestRouteDimensionOrder(t *testing.T) {
	r := newRig(t)
	tests := []struct {
		src, dst  int
		wantHops  int
		wantTurns int
	}{
		{0, 1, 1, 0},  // one step east
		{0, 3, 1, 0},  // wrap west is shorter than 3 east
		{0, 4, 1, 0},  // one step south
		{0, 12, 1, 0}, // wrap north
		{0, 5, 2, 1},  // one east + one south: a PSE turn
		{0, 15, 2, 1}, // wrap both dimensions
		{5, 5, 0, 0},  // self (degenerate)
		{0, 10, 4, 1}, // 2 + 2
	}
	for _, tt := range tests {
		links, turns := r.net.Route(tt.src, tt.dst)
		if len(links) != tt.wantHops {
			t.Errorf("Route(%d,%d) = %d hops, want %d", tt.src, tt.dst, len(links), tt.wantHops)
		}
		if turns != tt.wantTurns {
			t.Errorf("Route(%d,%d) = %d turns, want %d", tt.src, tt.dst, turns, tt.wantTurns)
		}
	}
}

// TestRouteNeverExceedsDiameter: any route on a 4x4 torus is at most 4
// hops (2 per dimension).
//
// The property test samples random node pairs on purpose; routing is
// pure and quick prints any counterexample.
func TestRouteNeverExceedsDiameter(t *testing.T) {
	r := newRig(t)
	f := func(rawSrc, rawDst uint8) bool {
		src, dst := int(rawSrc)%16, int(rawDst)%16
		links, turns := r.net.Route(src, dst)
		if src == dst {
			return len(links) == 0
		}
		return len(links) >= 1 && len(links) <= 4 && turns <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorusDeliversPacket(t *testing.T) {
	r := newRig(t)
	r.send(t, 1, 0, 5, 8, 0)
	r.run(t, 0, 120)
	if got := r.rxPort[5].BufferedFlits(); got != 8 {
		t.Fatalf("destination holds %d flits, want 8", got)
	}
	if r.net.PathsSetUp() != 1 {
		t.Fatalf("the packet took %d paths, want 1", r.net.PathsSetUp())
	}
	// Circuit released after the tail.
	for _, owner := range r.net.linkOwner {
		if owner != nil {
			t.Fatal("links still held after teardown")
		}
	}
}

// TestTorusSetupLatency: streaming cannot begin before the setup + ACK
// round trip (hops x hopCycles x 2).
func TestTorusSetupLatency(t *testing.T) {
	r := newRig(t)
	r.send(t, 1, 0, 5, 1, 0) // 2 hops: round trip = 2*2*4 = 16 cycles
	r.run(t, 0, router.PipelineDelay+16)
	if got := r.rxPort[5].BufferedFlits(); got != 0 {
		t.Fatal("flit arrived before the setup round trip completed")
	}
	r.run(t, router.PipelineDelay+16, 40)
	if got := r.rxPort[5].BufferedFlits(); got != 1 {
		t.Fatalf("flit did not arrive after setup (%d buffered)", got)
	}
}

// TestTorusBlocking: two paths contending for the same link cannot both
// hold it; the blocked source retries after the back-off and succeeds once
// the first circuit tears down.
func TestTorusBlocking(t *testing.T) {
	r := newRig(t)
	// 0 -> 2 uses links east(0), east(1); 1 -> 2 uses east(1): conflict.
	r.send(t, 1, 0, 2, 64, 0)
	r.run(t, 0, 3) // node 0 sets up first (scan order)
	r.send(t, 2, 1, 2, 8, 3)
	r.run(t, 3, 40)
	if r.net.SetupsBlocked() == 0 {
		t.Fatal("no setups blocked despite link conflict")
	}
	// Run long enough for the first packet (64 flits at 320 b/cycle =
	// ~7 cycles of streaming after a 16-cycle setup) to finish and the
	// second to retry.
	r.run(t, 40, 400)
	if r.net.PathsSetUp() != 2 {
		t.Fatalf("%d paths set up, want both after retry", r.net.PathsSetUp())
	}
	if got := r.rxPort[2].BufferedFlits(); got != 72 {
		t.Fatalf("destination holds %d flits, want 72", got)
	}
}

// TestTorusParallelCircuits: disjoint paths stream concurrently — the
// spatial reuse a crossbar write channel does not have.
func TestTorusParallelCircuits(t *testing.T) {
	r := newRig(t)
	r.send(t, 1, 0, 1, 64, 0)
	r.send(t, 2, 4, 5, 64, 0)
	r.send(t, 3, 8, 9, 64, 0)
	r.run(t, 0, 120)
	for _, dst := range []int{1, 5, 9} {
		if got := r.rxPort[dst].BufferedFlits(); got != 64 {
			t.Fatalf("destination %d holds %d flits, want 64", dst, got)
		}
	}
	if r.net.SetupsBlocked() != 0 {
		t.Fatalf("%d setups blocked on disjoint paths", r.net.SetupsBlocked())
	}
}

func TestTorusConfigValidation(t *testing.T) {
	bundle, err := photonic.NewBundle(64)
	if err != nil {
		t.Fatal(err)
	}
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	port, err := router.NewPort(1, 1, ledger, &occ)
	if err != nil {
		t.Fatal(err)
	}
	ports := make([]*router.Port, 16)
	rxs := make([]*xbar.RX, 16)
	for i := range ports {
		ports[i] = port
		rxs[i] = xbar.NewRX(port, ledger)
	}
	good := Config{Nodes: 16, Bundle: bundle, ClockHz: 2.5e9, SetupHopCycles: 4, RetryBackoffCycles: 16, MaxFlits: 64}

	cfg := good
	cfg.Nodes = 12 // not square
	if _, err := New(cfg, ports[:12], rxs[:12], ledger, nil); err == nil {
		t.Error("non-square node count accepted")
	}
	cfg = good
	if _, err := New(cfg, ports[:3], rxs, ledger, nil); err == nil {
		t.Error("short port slice accepted")
	}
	cfg = good
	cfg.SetupHopCycles = 0
	if _, err := New(cfg, ports, rxs, ledger, nil); err == nil {
		t.Error("zero hop latency accepted")
	}
}

func TestDirectionNames(t *testing.T) {
	for d, want := range map[Direction]string{East: "east", West: "west", North: "north", South: "south"} {
		if d.String() != want {
			t.Fatalf("direction %d = %q", d, d.String())
		}
	}
	if Direction(9).String() != "unknown" {
		t.Fatal("bad direction should be unknown")
	}
}
