package xbar

import (
	"fmt"
	"math/bits"

	"hetpnoc/internal/event"
	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/units"
)

// GatingMode selects which demodulators the destination powers for the
// duration of a packet.
type GatingMode int

// Gating modes.
const (
	// GateChannel powers the source channel's full wavelength set, as in
	// Firefly: "all the wavelengths are turned on for all transmissions
	// irrespective of the required data rate" (§3.3.1).
	GateChannel GatingMode = iota + 1

	// GateSelected powers only the wavelengths named in the reservation
	// flit, the d-HetPNoC behaviour.
	GateSelected
)

// DropHandler is notified when a packet is dropped at the receive side
// because no virtual channel was free; the fabric schedules the source's
// retransmission (§1.4).
type DropHandler func(p *packet.Packet, now sim.Cycle)

// RX is the receive side of one cluster's photonic router: the gated
// demodulator rows and the photonic input port feeding the router's
// ejection paths. Which rows are powered is a property of the open
// receive windows (each charges its own rows every cycle it is held), so
// the engine itself keeps only the drop counters.
type RX struct {
	port   *router.Port
	ledger *photonic.Ledger

	rxState
}

// rxState is a receive engine's checkpointed part: its counters.
type rxState struct {
	packetsDropped int64
	flitsDiscarded int64
}

// NewRX builds a cluster's receive engine, delivering into port (the
// photonic input port of the cluster's photonic router).
func NewRX(port *router.Port, ledger *photonic.Ledger) *RX {
	return &RX{port: port, ledger: ledger}
}

// PacketsDropped returns the number of packets dropped for lack of a free
// VC at this receiver.
func (rx *RX) PacketsDropped() int64 { return rx.packetsDropped }

// FlitsDiscarded returns the flits thrown away for dropped packets.
func (rx *RX) FlitsDiscarded() int64 { return rx.flitsDiscarded }

// Window is an open receive reservation: the destination has gated its
// demodulators and, unless dropped, holds a VC for the incoming packet.
// It is a plain value owned by whichever transfer it belongs to; the zero
// Window is closed, and closing one is assigning the zero value. Nothing
// has to be released: a dropped packet never held a VC, and otherwise the
// VC drains through the router and frees itself when the tail departs.
type Window struct {
	rx      *RX
	vc      int
	power   int // demodulator rows powered
	dropped bool
}

// Dropped reports whether the packet was refused for lack of a free VC.
func (w *Window) Dropped() bool { return w.dropped }

// open reports whether Begin has opened the window.
func (w *Window) open() bool { return w.rx != nil }

// Begin opens a receive window: the destination powers power demodulator
// rows and, when a VC is free, holds it for the incoming packet. When
// every VC of the photonic input port is busy, the window is marked
// dropped: the transfer still occupies the channel (the source cannot
// know), but the flits are discarded and the source must retransmit.
// Exported so other inter-cluster transports (the torus baseline) can
// reuse the receive engine.
func (rx *RX) Begin(p *packet.Packet, power int) Window {
	w := Window{rx: rx, power: power}
	vc, ok := rx.port.AllocVC(p.ID)
	if !ok {
		w.dropped = true
		rx.packetsDropped++
	} else {
		w.vc = vc
	}
	return w
}

// Deliver accepts one flit off the channel into the window.
func (w *Window) Deliver(f packet.Flit, now sim.Cycle) error {
	w.rx.ledger.Add(photonic.EnergyModulation, int64(f.Bits()))
	if w.dropped {
		w.rx.flitsDiscarded++
		return nil
	}
	return w.rx.port.Enqueue(w.vc, f, now)
}

// HoldCost charges one cycle of powered demodulator rows. The owner calls
// it every cycle it holds the window; un-gating the rows is no longer
// calling it.
func (w *Window) HoldCost() {
	w.rx.ledger.Add(photonic.EnergyIdleDetector, int64(w.power))
}

// pending is a reservation in flight for the next packet: broadcast on the
// reservation waveguide while the current packet is still streaming, so the
// channel can switch packets back-to-back (the reservation channel and the
// data channel are separate waveguides). pkt is nil when there is none.
type pending struct {
	pkt     *packet.Packet
	vc      int
	use     int // wavelengths the packet streams on
	resLeft int
	window  Window
}

// TXConfig carries the static parameters of a transmit engine.
type TXConfig struct {
	Cluster  topology.ClusterID
	Clusters int
	// MaxFlits sizes the packet-length field of the reservation flit.
	MaxFlits int
	Bundle   photonic.WaveguideBundle
	Gating   GatingMode

	// DisablePipelining serializes reservations behind data transfers
	// (the next packet's reservation starts only after the current
	// packet finishes). Only used by the ablation study; real R-SWMR
	// overlaps them since the waveguides are separate.
	DisablePipelining bool

	// Events, when non-nil, receives protocol events.
	Events *event.Log
}

// propagationCycles is the light-propagation latency added to every
// reservation (1 cycle across the 20 mm die).
const propagationCycles = 1

// TX is the transmit side of one cluster's write channel: it drains the
// photonic router's transmit port, broadcasts reservations on the
// cluster's dedicated reservation waveguide, and serializes flits onto the
// allocated data wavelengths.
type TX struct {
	cfg    TXConfig
	port   *router.Port
	alloc  Allocator
	rxs    []*RX
	ledger *photonic.Ledger
	onDrop DropHandler

	// perWavelength is what one allocated wavelength carries per cycle.
	perWavelength units.BitCredit

	txState
}

// txState is a transmit engine's checkpointed part: the streaming
// transfer and the in-flight reservation with their receive windows, and
// the counters. The packets it points at are shared, never owned: slots
// of the fabric's pool, whose snapshot restores their contents. A struct
// copy is therefore the whole checkpoint.
type txState struct {
	// current transfer being streamed, if any.
	vcIdx   int
	current *packet.Packet
	use     int
	window  Window
	credit  units.BitCredit

	// next reservation in flight; next.pkt is nil when there is none.
	next pending

	rr int

	busyCycles int64
}

// NewTX builds the transmit engine draining port. rxs must be indexed by
// cluster; onDrop may be nil.
func NewTX(cfg TXConfig, port *router.Port, alloc Allocator, rxs []*RX, ledger *photonic.Ledger, onDrop DropHandler) (*TX, error) {
	if cfg.Clusters <= 0 || cfg.MaxFlits <= 0 {
		return nil, fmt.Errorf("xbar: TX config for cluster %d has non-positive parameters", cfg.Cluster)
	}
	if cfg.Gating != GateChannel && cfg.Gating != GateSelected {
		return nil, fmt.Errorf("xbar: TX config for cluster %d has invalid gating mode", cfg.Cluster)
	}
	if len(rxs) != cfg.Clusters {
		return nil, fmt.Errorf("xbar: TX for cluster %d given %d receivers for %d clusters", cfg.Cluster, len(rxs), cfg.Clusters)
	}
	perWavelength, err := photonic.WavelengthCredit(sim.ClockHz)
	if err != nil {
		return nil, fmt.Errorf("xbar: TX for cluster %d: wavelength rate per cycle: %w", cfg.Cluster, err)
	}
	return &TX{cfg: cfg, port: port, alloc: alloc, rxs: rxs, ledger: ledger, onDrop: onDrop, perWavelength: perWavelength}, nil
}

// BusyCycles returns cycles the channel spent reserving or streaming.
func (tx *TX) BusyCycles() int64 { return tx.busyCycles }

// Busy reports whether the engine has any work: a packet streaming, a
// reservation in flight, or flits waiting in the transmit port. When it
// is false, Tick is a no-op and the fabric may skip the engine entirely.
func (tx *TX) Busy() bool {
	return tx.current != nil || tx.next.pkt != nil || tx.port.BufferedFlits() > 0
}

// Tick advances the engine one cycle. Reservation and data transfer use
// separate waveguides, so the next packet's reservation broadcasts while
// the current packet streams — the channel switches packets back-to-back
// once the pipeline is warm.
func (tx *TX) Tick(now sim.Cycle) error {
	// Advance the in-flight reservation.
	if tx.next.pkt != nil && !tx.next.window.open() {
		tx.next.resLeft--
		if tx.next.resLeft <= 0 {
			power := tx.next.use
			if tx.cfg.Gating == GateChannel {
				power = tx.alloc.AllocatedCount(tx.cfg.Cluster)
			}
			tx.next.window = tx.rxs[tx.next.pkt.DstCluster].Begin(tx.next.pkt, power)
		}
	}

	// Promote a completed reservation onto the idle data channel.
	if tx.current == nil && tx.next.window.open() {
		tx.current = tx.next.pkt
		tx.vcIdx = tx.next.vc
		tx.use = tx.next.use
		tx.window = tx.next.window
		tx.credit = 0
		tx.next = pending{}
		tx.cfg.Events.AppendInts(now, event.StreamStarted, int(tx.cfg.Cluster), int64(tx.current.ID),
			"to cluster %d on %d wavelengths", int64(tx.current.DstCluster), int64(tx.use))
	}

	// Stream the current packet.
	if tx.current != nil {
		tx.busyCycles++
		if err := tx.stream(now); err != nil {
			return err
		}
	} else if tx.next.pkt != nil {
		tx.busyCycles++
	}

	// A pending window that has not been promoted yet still holds its
	// destination demodulators powered.
	if tx.next.window.open() {
		tx.next.window.HoldCost()
	}

	// Admit the next reservation (only once the channel is idle when the
	// ablation study disables reservation pipelining).
	if tx.next.pkt == nil && (!tx.cfg.DisablePipelining || tx.current == nil) {
		tx.admitNext(now)
	}
	return nil
}

// admitNext scans the transmit VCs round-robin for a ready packet header
// (other than the one currently streaming), selects its wavelengths and
// begins its reservation broadcast.
func (tx *TX) admitNext(now sim.Cycle) {
	// Visit occupied VCs in the reference round-robin order — positions
	// tx.rr..n-1, then 0..tx.rr-1 — jumping over empty ones with the
	// occupancy bitmask (reference visits of empty VCs have no effect).
	m := tx.port.OccupiedMask()
	if tx.current != nil {
		m &^= 1 << uint(tx.vcIdx)
	}
	hi := m & (^uint64(0) << uint(tx.rr))
	for _, part := range [2]uint64{hi, m &^ hi} {
		for w := part; w != 0; w &= w - 1 {
			vc := bits.TrailingZeros64(w)
			pkt, isHdr, ok := tx.port.HeadReady(vc, now)
			if !ok || !isHdr {
				continue
			}
			tx.rr = (vc + 1) % tx.port.VCCount()
			use := tx.alloc.SelectForPacket(tx.cfg.Cluster, pkt.DstCluster)

			// Size and charge the reservation flit. d-HetPNoC piggybacks
			// the wavelength identifiers (§3.4.1.1); Firefly's static
			// channels need none.
			ids := 0
			if tx.cfg.Gating == GateSelected {
				ids = use
			}
			cycles := packet.ReservationCycles(tx.cfg.Clusters, tx.cfg.MaxFlits, tx.cfg.Bundle, ids, tx.perWavelength)
			resBits := int64(packet.ReservationBits(tx.cfg.Clusters, tx.cfg.MaxFlits, tx.cfg.Bundle, ids))
			tx.ledger.AddControlTransmit(resBits)
			// Every listening cluster decodes the destination-ID field of
			// the broadcast; only the addressed destination demodulates
			// the rest (R-SWMR reservation broadcast, §2.2.1).
			idBits := int64(packet.DestinationIDBits(tx.cfg.Clusters))
			tx.ledger.Add(photonic.EnergyModulation, idBits*int64(tx.cfg.Clusters-1)+resBits)

			tx.next = pending{
				pkt:     pkt,
				vc:      vc,
				use:     use,
				resLeft: cycles + propagationCycles,
			}
			tx.cfg.Events.AppendInts(now, event.ReservationSent, int(tx.cfg.Cluster), int64(pkt.ID),
				"to cluster %d, %d ids, %d cycles", int64(pkt.DstCluster), int64(ids), int64(cycles))
			return
		}
	}
}

// stream moves flits of the current packet onto the channel as bandwidth
// credit accrues: k allocated wavelengths earn k x (rate/clock) bits per
// cycle (5 bits per wavelength at the thesis's operating point).
func (tx *TX) stream(now sim.Cycle) error {
	flitBits := units.Bits(tx.current.FlitBits)
	// Idle light slots are lost: credit cannot bank more than one cycle
	// of bandwidth beyond a flit boundary.
	tx.credit = min(tx.credit, flitBits) + tx.perWavelength*units.BitCredit(tx.use)
	tx.window.HoldCost()

	for tx.credit >= flitBits {
		pkt, _, ok := tx.port.HeadReady(tx.vcIdx, now)
		if !ok {
			return nil // channel stalls waiting for flits from the electrical side
		}
		if pkt.ID != tx.current.ID {
			return fmt.Errorf("xbar: cluster %d TX VC %d interleaved packet %d into packet %d",
				tx.cfg.Cluster, tx.vcIdx, pkt.ID, tx.current.ID)
		}
		popped, err := tx.port.Pop(tx.vcIdx)
		if err != nil {
			return err
		}
		tx.credit -= flitBits
		tx.ledger.AddPhotonicTransmit(int64(tx.current.FlitBits))
		if err := tx.window.Deliver(popped, now); err != nil {
			return err
		}
		if popped.Type.IsTail() {
			tx.finish(now)
			return nil
		}
	}
	return nil
}

// finish closes the transfer: receive window closed, drop notification
// if the receiver had refused the packet, channel back to idle.
func (tx *TX) finish(now sim.Cycle) {
	if tx.window.dropped {
		tx.cfg.Events.AppendInts(now, event.PacketDropped, int(tx.current.DstCluster), int64(tx.current.ID),
			"from cluster %d, attempt %d", int64(tx.cfg.Cluster), int64(tx.current.Attempt))
		if tx.onDrop != nil {
			tx.onDrop(tx.current, now)
		}
	} else {
		tx.cfg.Events.AppendInts(now, event.PacketArrived, int(tx.current.DstCluster), int64(tx.current.ID),
			"from cluster %d", int64(tx.cfg.Cluster))
	}
	tx.window = Window{}
	tx.current = nil
	tx.use = 0
}
