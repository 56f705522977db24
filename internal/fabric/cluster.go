package fabric

import (
	"fmt"
	"math/bits"

	"hetpnoc/internal/event"
	"hetpnoc/internal/packet"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// Datapath widths (flits per cycle). The switch-to-photonic-router paths
// are double width so a single packet can stream fast enough to feed the
// widest dynamic channel allocation (DESIGN.md §4); peer links between
// core switches are single width.
const (
	injectWidth = 2
	peerWidth   = 1
	toPRWidth   = 2
	rxDrainMult = 4
	ejectWidth  = 2 // flits per cycle a core consumes
)

// coreState is the per-core runtime: the traffic source, the bounded
// injection queue, the packet currently being fed into the switch, and the
// ejection port the core consumes from.
type coreState struct {
	id    topology.CoreID
	queue packet.Queue

	// Port views wired at build; the ports' state lives in the arena.
	injectPort *router.Port
	ejectPort  *router.Port

	coreRun
}

// coreRun is a core's checkpointed part beside its queue. The source is
// a value, so a copy is the generator exactly as it stood, whichever
// task remap installed it.
type coreRun struct {
	source traffic.Source

	// inFlight is the packet being fed into the switch: its VC and the
	// sequence number of its next flit.
	inFlight *packet.Packet
	inVC     int
	inNext   int

	ejectRR int
}

// cluster groups the hardware of one cluster: the electrical switches, the
// photonic router and the crossbar engines.
type cluster struct {
	id       topology.ClusterID
	switches []*router.Router
	photonic *router.Router
	txPort   *router.Port
}

// buildAllToAll wires a cluster in the §3.1 configuration: each core has
// its own switch, switches are connected pairwise and to the photonic
// router.
//
// Switch S_i port map (K = cluster size):
//
//	inputs:  0 = inject, 1..K-1 = peers (ascending, skipping self), K = from P
//	outputs: 0 = eject, 1..K-1 = peers, K = to P
//
// Photonic router P port map:
//
//	inputs:  0..K-1 = from switches, K = photonic receive
//	outputs: 0..K-1 = to switches, K = transmit port
func (f *Fabric) buildAllToAll(cl topology.ClusterID) (*cluster, error) {
	k := chip.ClusterSize()
	c := &cluster{id: cl}

	newPort := func() (*router.Port, error) {
		return f.arena.NewPort(f.cfg.VCsPerPort, bufferDepthFlits)
	}

	// Pre-create every input port so routers can cross-reference them.
	switchInputs := make([][]*router.Port, k) // [core][port]
	for i := 0; i < k; i++ {
		switchInputs[i] = make([]*router.Port, k+1)
		for p := 0; p <= k; p++ {
			port, err := newPort()
			if err != nil {
				return nil, err
			}
			switchInputs[i][p] = port
		}
	}
	prInputs := make([]*router.Port, k+1)
	for p := 0; p <= k; p++ {
		port, err := newPort()
		if err != nil {
			return nil, err
		}
		prInputs[p] = port
	}
	txPort, err := newPort()
	if err != nil {
		return nil, err
	}
	c.txPort = txPort

	// peerSlot(i, j) is the port index on switch i used for peer j != i:
	// peers take slots 1..K-1 in ascending order, skipping i itself.
	peerSlot := func(i, j int) int {
		if j < i {
			return j + 1
		}
		return j
	}

	for i := 0; i < k; i++ {
		core := chip.CoreAt(cl, i)
		localIdx := i
		route := func(fl packet.Flit) int {
			if fl.Packet.Dst == core {
				return 0
			}
			if fl.Packet.DstCluster == cl {
				return peerSlot(localIdx, chip.LocalIndex(fl.Packet.Dst))
			}
			return k
		}
		widths := make([]int, k+1)
		widths[0] = injectWidth
		for p := 1; p < k; p++ {
			widths[p] = peerWidth
		}
		widths[k] = toPRWidth

		sw, err := router.New(fmt.Sprintf("c%d.s%d", cl, i), switchInputs[i], widths, route, f.ledger)
		if err != nil {
			return nil, err
		}

		ejectPort, err := newPort()
		if err != nil {
			return nil, err
		}
		if _, err := sw.AddOutput(ejectPort, ejectWidth, false); err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			if _, err := sw.AddOutput(switchInputs[j][peerSlot(j, i)], peerWidth, true); err != nil {
				return nil, err
			}
		}
		if _, err := sw.AddOutput(prInputs[i], toPRWidth, true); err != nil {
			return nil, err
		}

		c.switches = append(c.switches, sw)
		cs := &f.cores[core]
		cs.injectPort = switchInputs[i][0]
		cs.ejectPort = ejectPort
	}

	prRoute := func(fl packet.Flit) int {
		if fl.Packet.DstCluster != cl {
			return k
		}
		return chip.LocalIndex(fl.Packet.Dst)
	}
	prWidths := make([]int, k+1)
	for p := 0; p < k; p++ {
		prWidths[p] = toPRWidth
	}
	prWidths[k] = rxDrainMult
	pr, err := router.New(fmt.Sprintf("c%d.pr", cl), prInputs, prWidths, prRoute, f.ledger)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		if _, err := pr.AddOutput(switchInputs[i][k], toPRWidth, true); err != nil {
			return nil, err
		}
	}
	if _, err := pr.AddOutput(txPort, 2*k, false); err != nil {
		return nil, err
	}
	c.photonic = pr
	return c, nil
}

// buildConcentrated wires a cluster in the Firefly style [20]: the
// cluster's cores share one electrical switch connected to the photonic
// router.
//
// Switch port map: inputs 0..K-1 = inject per core, K = from P;
// outputs 0..K-1 = eject per core, K = to P.
// Photonic router: input 0 = from switch, 1 = receive;
// outputs 0 = to switch, 1 = transmit port.
func (f *Fabric) buildConcentrated(cl topology.ClusterID) (*cluster, error) {
	k := chip.ClusterSize()
	c := &cluster{id: cl}

	newPort := func() (*router.Port, error) {
		return f.arena.NewPort(f.cfg.VCsPerPort, bufferDepthFlits)
	}

	swInputs := make([]*router.Port, k+1)
	for p := 0; p <= k; p++ {
		port, err := newPort()
		if err != nil {
			return nil, err
		}
		swInputs[p] = port
	}
	prFromSwitch, err := newPort()
	if err != nil {
		return nil, err
	}
	prRX, err := newPort()
	if err != nil {
		return nil, err
	}
	txPort, err := newPort()
	if err != nil {
		return nil, err
	}
	c.txPort = txPort

	route := func(fl packet.Flit) int {
		if fl.Packet.DstCluster == cl {
			return chip.LocalIndex(fl.Packet.Dst)
		}
		return k
	}
	widths := make([]int, k+1)
	for p := 0; p < k; p++ {
		widths[p] = injectWidth
	}
	widths[k] = 2 * toPRWidth
	sw, err := router.New(fmt.Sprintf("c%d.s", cl), swInputs, widths, route, f.ledger)
	if err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		ejectPort, err := newPort()
		if err != nil {
			return nil, err
		}
		if _, err := sw.AddOutput(ejectPort, ejectWidth, false); err != nil {
			return nil, err
		}
		core := chip.CoreAt(cl, i)
		cs := &f.cores[core]
		cs.injectPort = swInputs[i]
		cs.ejectPort = ejectPort
	}
	if _, err := sw.AddOutput(prFromSwitch, 2*toPRWidth, true); err != nil {
		return nil, err
	}
	c.switches = []*router.Router{sw}

	prRoute := func(fl packet.Flit) int {
		if fl.Packet.DstCluster != cl {
			return 1
		}
		return 0
	}
	pr, err := router.New(fmt.Sprintf("c%d.pr", cl),
		[]*router.Port{prFromSwitch, prRX}, []int{2 * toPRWidth, rxDrainMult}, prRoute, f.ledger)
	if err != nil {
		return nil, err
	}
	if _, err := pr.AddOutput(swInputs[k], 2*toPRWidth, true); err != nil {
		return nil, err
	}
	if _, err := pr.AddOutput(txPort, 2*k, false); err != nil {
		return nil, err
	}
	c.photonic = pr
	return c, nil
}

// rxInputPort returns the photonic router input the receive engine
// delivers into.
func (c *cluster) rxInputPort(clusterSize int, mode IntraCluster) *router.Port {
	if mode == Concentrated {
		return c.photonic.Input(1)
	}
	return c.photonic.Input(clusterSize)
}

// pumpInject feeds the core's pending packets into its switch, allocating
// a VC per packet and moving up to injectWidth flits per cycle.
func (cs *coreState) pumpInject(now sim.Cycle) error {
	for moved := 0; moved < injectWidth; moved++ {
		if cs.inFlight == nil {
			head := cs.queue.Head()
			if head == nil {
				return nil
			}
			vc, ok := cs.injectPort.AllocVC(head.ID)
			if !ok {
				return nil // every VC busy; the packet waits at the source
			}
			cs.inFlight = cs.queue.Pop()
			cs.inVC = vc
			cs.inNext = 0
		}
		// The VC was free when the packet took it, and it holds a whole
		// packet (Validate), so it has room for every flit.
		fl := packet.FlitAt(cs.inFlight, cs.inNext)
		if err := cs.injectPort.Enqueue(cs.inVC, fl, now); err != nil {
			return err
		}
		cs.inNext++
		if cs.inNext == cs.inFlight.Flits {
			cs.inFlight = nil
		}
	}
	return nil
}

// drainEject consumes up to ejectWidth ready flits from the core's eject
// port, completing packets as tails arrive.
//
// It replays the reference round-robin position walk (vcIdx =
// (ejectRR+scan) mod n, ejectRR advancing live on tails) but jumps over
// empty VCs with the port's occupancy bitmask. A VC found empty or too
// young is dropped from the local mask: no enqueue can happen during the
// drain, so neither condition can clear within this call, and reference
// visits of such VCs have no side effects.
func (f *Fabric) drainEject(cs *coreState, now sim.Cycle) error {
	p := cs.ejectPort
	m := p.OccupiedMask()
	n := p.VCCount()
	drained := 0
	for scan := 0; scan < n && drained < ejectWidth; {
		if m == 0 {
			break
		}
		t := cs.ejectRR + scan
		if t >= n {
			t -= n
		}
		// First occupied VC at or circularly after position t.
		idx := 0
		wrapped := false
		if x := m >> uint(t) << uint(t); x != 0 {
			idx = bits.TrailingZeros64(x)
		} else {
			idx = bits.TrailingZeros64(m)
			wrapped = true
		}
		d := idx - t
		if d < 0 || wrapped {
			d += n
		}
		scan += d
		if scan >= n {
			break
		}
		if _, _, ok := p.HeadReady(idx, now); !ok {
			m &^= 1 << uint(idx)
			scan++
			continue
		}
		popped, err := p.Pop(idx)
		if err != nil {
			return err
		}
		drained++
		f.collector.OnDeliverFlit(popped.Bits(), int(popped.Packet.SrcCluster))
		if popped.Type.IsTail() {
			f.deliver(popped.Packet, now)
			cs.ejectRR = idx + 1
			if cs.ejectRR == n {
				cs.ejectRR = 0
			}
			m &^= 1 << uint(idx) // a popped tail always empties the VC
			scan++
			continue
		}
		// keep draining the same VC to preserve round-robin fairness at
		// packet granularity
	}
	return nil
}

// deliver retires a packet whose tail flit has just been consumed by its
// destination core.
func (f *Fabric) deliver(p *packet.Packet, now sim.Cycle) {
	f.collector.OnDeliverPacket(p.Born, now)
	f.events.AppendInts(now, event.PacketDelivered, int(p.DstCluster), int64(p.ID),
		"core %d, latency %d cycles", int64(p.Dst), int64(now-p.Born))
	// The tail was the last live reference: recycle the struct.
	f.pool.Put(p)
}
