package xbar

import (
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

func mustBundle(t *testing.T, total int) photonic.WaveguideBundle {
	t.Helper()
	b, err := photonic.NewBundle(total)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStaticAllocatorPartition(t *testing.T) {
	topo := topology.Default()
	bundle := mustBundle(t, 64)
	s, err := NewStatic(bundle, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[photonic.WavelengthID]int)
	for cl := 0; cl < topo.Clusters(); cl++ {
		ids := s.Allocated(topology.ClusterID(cl))
		if len(ids) != 4 {
			t.Fatalf("cluster %d got %d wavelengths, want 4 (Table 3-3)", cl, len(ids))
		}
		for _, id := range ids {
			if prev, dup := seen[id]; dup {
				t.Fatalf("wavelength %v assigned to clusters %d and %d", id, prev, cl)
			}
			seen[id] = cl
		}
	}
	if len(seen) != 64 {
		t.Fatalf("partition covers %d wavelengths, want 64", len(seen))
	}
	// Firefly always transmits on the full channel.
	if use := s.SelectForPacket(3, 9); use != 4 || s.AllocatedCount(3) != 4 {
		t.Fatalf("SelectForPacket returned %d wavelengths of %d, want the full channel (4)", use, s.AllocatedCount(3))
	}
}

func TestStaticAllocatorValidation(t *testing.T) {
	bundle := mustBundle(t, 64)
	if _, err := NewStatic(bundle, 8); err == nil {
		t.Error("budget below cluster count accepted")
	}
	if _, err := NewStatic(bundle, 63); err == nil {
		t.Error("non-divisible budget accepted")
	}
}

// txRig assembles a transmit engine for cluster 0 and a receive engine for
// cluster 1, with direct access to the ports.
type txRig struct {
	tx      *TX
	arena   *router.Arena // backs every port of the rig
	txPort  *router.Port
	rxPort  *router.Port
	rx      *RX
	ledger  *photonic.Ledger
	occ     int64
	dropped []*packet.Packet
}

func newTXRig(t *testing.T, gating GatingMode, rxVCs int) *txRig {
	t.Helper()
	topo := topology.Default()
	bundle := mustBundle(t, 64)
	rig := &txRig{ledger: photonic.NewLedger(photonic.DefaultEnergyParams())}
	rig.ledger.StartMeasurement()

	var err error
	rig.arena, err = router.NewArena(rig.ledger, &rig.occ)
	if err != nil {
		t.Fatal(err)
	}
	rig.txPort, err = rig.arena.NewPort(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	rig.rxPort, err = rig.arena.NewPort(rxVCs, 64)
	if err != nil {
		t.Fatal(err)
	}

	alloc, err := NewStatic(bundle, 64)
	if err != nil {
		t.Fatal(err)
	}
	rxs := make([]*RX, topo.Clusters())
	for cl := range rxs {
		if cl == 1 {
			rxs[cl] = NewRX(rig.rxPort, rig.ledger)
			continue
		}
		port, err := rig.arena.NewPort(2, 64)
		if err != nil {
			t.Fatal(err)
		}
		rxs[cl] = NewRX(port, rig.ledger)
	}
	rig.rx = rxs[1]

	rig.tx, err = NewTX(TXConfig{
		Cluster:  0,
		Clusters: topo.Clusters(),
		MaxFlits: 64,
		Bundle:   bundle,
		Gating:   gating,
	}, rig.txPort, alloc, rxs, rig.ledger, func(p *packet.Packet, _ sim.Cycle) {
		rig.dropped = append(rig.dropped, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func (rig *txRig) enqueuePacket(t *testing.T, id packet.ID, flits int, now sim.Cycle) {
	t.Helper()
	pkt := &packet.Packet{ID: id, Flits: flits, FlitBits: 32, SrcCluster: 0, DstCluster: 1}
	vc, ok := rig.txPort.AllocVC(pkt.ID)
	if !ok {
		t.Fatal("no free TX VC")
	}
	for i := 0; i < flits; i++ {
		if err := rig.txPort.Enqueue(vc, packet.FlitAt(pkt, i), now); err != nil {
			t.Fatal(err)
		}
	}
}

// poweredRows returns the demodulator rows a measuring ledger was
// charged for since its idle-detector count was before: the receive
// windows charge their gated rows once per cycle they are held.
func poweredRows(l *photonic.Ledger, before int64) int {
	return int(l.Counts()[photonic.EnergyIdleDetector] - before)
}

func (rig *txRig) run(t *testing.T, from, to sim.Cycle) {
	t.Helper()
	for now := from; now < to; now++ {
		if err := rig.tx.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTXDeliversPacket: a packet streams across the channel and lands in
// the destination's photonic input port, in order.
func TestTXDeliversPacket(t *testing.T) {
	rig := newTXRig(t, GateChannel, 16)
	rig.enqueuePacket(t, 1, 8, 0)
	rig.run(t, 0, 60)

	if got := rig.rxPort.BufferedFlits(); got != 8 {
		t.Fatalf("destination holds %d flits, want 8", got)
	}
	if rig.tx.Busy() {
		t.Fatal("the channel is still busy after the packet arrived")
	}
	for i := 0; i < 8; i++ {
		fl, err := rig.rxPort.Pop(0)
		if err != nil {
			t.Fatal(err)
		}
		if fl.Seq != i {
			t.Fatalf("flit %d arrived with seq %d", i, fl.Seq)
		}
	}
}

// TestTXStreamingRate: a 4-wavelength channel carries 20 bits per cycle,
// so a 64x32 b packet takes ~103 cycles of streaming. Check the total
// transfer time is consistent with the §3.4.1.1 serialization model.
func TestTXStreamingRate(t *testing.T) {
	rig := newTXRig(t, GateChannel, 16)
	rig.enqueuePacket(t, 1, 64, 0)

	done := sim.Cycle(-1)
	for now := sim.Cycle(0); now < 400; now++ {
		if err := rig.tx.Tick(now); err != nil {
			t.Fatal(err)
		}
		if rig.rxPort.BufferedFlits() == 64 && done < 0 {
			done = now
		}
	}
	if done < 0 {
		t.Fatal("packet never completed")
	}
	// 2048 bits / 20 bits-per-cycle = 102.4 cycles of streaming, plus
	// pipeline delay, reservation (1 cycle) and propagation (1 cycle).
	if done < 102 || done > 115 {
		t.Fatalf("64-flit packet completed at cycle %d, want ~105 (20 b/cycle channel)", done)
	}
}

// TestTXPipelinedReservation: with two packets queued, the second's
// reservation overlaps the first's streaming, so the channel switches
// nearly back-to-back instead of paying the reservation latency between
// packets.
func TestTXPipelinedReservation(t *testing.T) {
	rig := newTXRig(t, GateChannel, 16)
	rig.enqueuePacket(t, 1, 8, 0)
	rig.enqueuePacket(t, 2, 8, 0)

	firstDone, secondDone := sim.Cycle(-1), sim.Cycle(-1)
	for now := sim.Cycle(0); now < 200; now++ {
		if err := rig.tx.Tick(now); err != nil {
			t.Fatal(err)
		}
		if rig.rxPort.BufferedFlits() >= 8 && firstDone < 0 {
			firstDone = now
		}
		if rig.rxPort.BufferedFlits() == 16 && secondDone < 0 {
			secondDone = now
		}
	}
	if firstDone < 0 || secondDone < 0 {
		t.Fatal("packets did not complete")
	}
	// 8 flits x 32 b = 256 bits at 20 b/cycle = 12.8 cycles of streaming.
	// With the reservation pipelined, the gap between completions must be
	// close to the pure streaming time, not streaming + reservation +
	// propagation + rescan.
	gap := secondDone - firstDone
	if gap > 15 {
		t.Fatalf("second packet finished %d cycles after the first; reservation not pipelined", gap)
	}
	// A reservation flit is launched but, unlike data, needs no tuning.
	counts := rig.ledger.Counts()
	resBits := int64(packet.ReservationBits(16, 64, mustBundle(t, 64), 0))
	if got := counts[photonic.EnergyLaunch] - counts[photonic.EnergyTuning]; got != 2*resBits {
		t.Fatalf("%d reservation bits launched, want two reservations of %d", got, resBits)
	}
}

// TestTXSerializedReservation: with pipelining disabled (the ablation
// mode), the second packet's reservation starts only after the first
// packet finishes, so the completion gap includes the reservation and
// propagation latency.
func TestTXSerializedReservation(t *testing.T) {
	measureGap := func(disable bool) sim.Cycle {
		topo := topology.Default()
		bundle := mustBundle(t, 64)
		rig := &txRig{ledger: photonic.NewLedger(photonic.DefaultEnergyParams())}
		var err error
		rig.txPort, err = router.NewPort(16, 64, rig.ledger, &rig.occ)
		if err != nil {
			t.Fatal(err)
		}
		rig.rxPort, err = router.NewPort(16, 64, rig.ledger, &rig.occ)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := NewStatic(bundle, 64)
		if err != nil {
			t.Fatal(err)
		}
		rxs := make([]*RX, topo.Clusters())
		for cl := range rxs {
			rxs[cl] = NewRX(rig.rxPort, rig.ledger)
		}
		rig.tx, err = NewTX(TXConfig{
			Cluster: 0, Clusters: topo.Clusters(), MaxFlits: 64, Bundle: bundle,
			Gating:            GateChannel,
			DisablePipelining: disable,
		}, rig.txPort, alloc, rxs, rig.ledger, nil)
		if err != nil {
			t.Fatal(err)
		}
		rig.enqueuePacket(t, 1, 8, 0)
		rig.enqueuePacket(t, 2, 8, 0)

		firstDone, secondDone := sim.Cycle(-1), sim.Cycle(-1)
		for now := sim.Cycle(0); now < 300; now++ {
			if err := rig.tx.Tick(now); err != nil {
				t.Fatal(err)
			}
			if rig.rxPort.BufferedFlits() >= 8 && firstDone < 0 {
				firstDone = now
			}
			if rig.rxPort.BufferedFlits() == 16 && secondDone < 0 {
				secondDone = now
			}
		}
		if firstDone < 0 || secondDone < 0 {
			t.Fatal("packets did not complete")
		}
		return secondDone - firstDone
	}

	pipelined := measureGap(false)
	serialized := measureGap(true)
	if serialized <= pipelined {
		t.Fatalf("serialized gap (%d) not above pipelined gap (%d)", serialized, pipelined)
	}
}

// TestRXDropWhenNoVC: with a single receive VC held by an undrained
// packet, a second transfer is dropped and the drop handler fires (§1.4).
func TestRXDropWhenNoVC(t *testing.T) {
	rig := newTXRig(t, GateChannel, 1)
	rig.enqueuePacket(t, 1, 8, 0)
	rig.run(t, 0, 60) // first packet occupies the only RX VC (not drained)

	rig.enqueuePacket(t, 2, 8, 60)
	rig.run(t, 60, 140)

	if len(rig.dropped) != 1 {
		t.Fatalf("%d packets dropped, want 1", len(rig.dropped))
	}
	if rig.dropped[0].ID != 2 {
		t.Fatalf("dropped packet %d, want 2", rig.dropped[0].ID)
	}
	if rig.rx.PacketsDropped() != 1 {
		t.Fatalf("RX counted %d drops", rig.rx.PacketsDropped())
	}
	if rig.rx.FlitsDiscarded() != 8 {
		t.Fatalf("RX discarded %d flits, want 8", rig.rx.FlitsDiscarded())
	}
	// The channel time was still spent: both packets' bits were streamed.
	if got := rig.ledger.Counts()[photonic.EnergyTuning]; got != 2*8*32 {
		t.Fatalf("%d data bits streamed, want both packets' %d (drops still occupy the channel)", got, 2*8*32)
	}
}

// TestDetectorGating: demodulator rows are charged only within the receive
// window, and the gating mode controls how many.
func TestDetectorGating(t *testing.T) {
	for _, tt := range []struct {
		gating GatingMode
		want   int
	}{
		{GateChannel, 4},  // Firefly: the channel's full wavelength set
		{GateSelected, 4}, // static allocator selects all 4 anyway
	} {
		rig := newTXRig(t, tt.gating, 16)
		rig.enqueuePacket(t, 1, 64, 0)

		maxPowered, last := 0, 0
		for now := sim.Cycle(0); now < 200; now++ {
			before := rig.ledger.Counts()[photonic.EnergyIdleDetector]
			if err := rig.tx.Tick(now); err != nil {
				t.Fatal(err)
			}
			last = poweredRows(rig.ledger, before)
			maxPowered = max(maxPowered, last)
		}
		if maxPowered != tt.want {
			t.Fatalf("gating %v: max powered detectors = %d, want %d", tt.gating, maxPowered, tt.want)
		}
		if last != 0 {
			t.Fatalf("gating %v: %d detectors still charged after the window", tt.gating, last)
		}
	}
}

func TestTXConfigValidation(t *testing.T) {
	bundle := mustBundle(t, 64)
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	port, err := router.NewPort(1, 1, ledger, &occ)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := NewStatic(bundle, 64)
	if err != nil {
		t.Fatal(err)
	}
	rxs := make([]*RX, 16)
	for i := range rxs {
		rxs[i] = NewRX(port, ledger)
	}

	bad := []TXConfig{
		{Cluster: 0, Clusters: 0, MaxFlits: 64, Bundle: bundle, Gating: GateChannel},
		{Cluster: 0, Clusters: 16, MaxFlits: 0, Bundle: bundle, Gating: GateChannel},
		{Cluster: 0, Clusters: 16, MaxFlits: 64, Bundle: bundle, Gating: 0},
	}
	for i, cfg := range bad {
		if _, err := NewTX(cfg, port, alloc, rxs, ledger, nil); err == nil {
			t.Errorf("bad TX config %d accepted", i)
		}
	}
	if _, err := NewTX(TXConfig{Cluster: 0, Clusters: 16, MaxFlits: 64, Bundle: bundle,
		Gating: GateChannel}, port, alloc, rxs[:3], ledger, nil); err == nil {
		t.Error("short RX slice accepted")
	}
}
