// Package torus implements the photonic 2D folded-torus NoC of Shacham et
// al. ([15], described in §2.1.3 of the thesis) as an additional
// related-work baseline: a circuit-switched photonic network in which an
// electronic control network sets up a path hop by hop with
// dimension-order routing, photonic switching elements (PSEs) turn the
// light at intermediate routers, and the payload then streams at the full
// DWDM rate of the reserved path.
//
// Behavioural model (documented simplifications):
//
//   - Path setup is reserved atomically when initiated and held for the
//     setup + acknowledgement round trip (hops x SetupHopCycles each way)
//     before streaming begins. A real setup walks hop by hop; atomic
//     reservation with the same latency preserves throughput and blocking
//     behaviour while keeping the model deterministic.
//   - The torus routers are blocking (§2.1.3: "the design choice would be
//     to blocking switch because of its compactness"): a link carries one
//     path at a time. A blocked setup is abandoned — the thesis's
//     path-blocked packet — and the source retries after a back-off.
//   - The payload streams on every DWDM wavelength of the path
//     (64 x 12.5 Gb/s) with the same credit serialization as the crossbar
//     engines, and lands in the destination's receive engine (shared with
//     the crossbar architectures), so drops and retransmissions behave
//     identically.
package torus

import (
	"fmt"

	"hetpnoc/internal/event"
	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/units"
	"hetpnoc/internal/xbar"
)

// Direction indexes a torus node's four links.
type Direction int

// Torus link directions.
const (
	East Direction = iota
	West
	North
	South
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case East:
		return "east"
	case West:
		return "west"
	case North:
		return "north"
	case South:
		return "south"
	default:
		return "unknown"
	}
}

// linkID identifies one directed photonic link.
type linkID struct {
	node int
	dir  Direction
}

// Config parameterizes the torus network.
type Config struct {
	// Nodes is the cluster count; it must be a perfect square (16 -> 4x4).
	Nodes int

	// Bundle describes the per-link DWDM capacity (64 wavelengths).
	Bundle photonic.WaveguideBundle

	ClockHz float64

	// SetupHopCycles is the electronic control network's per-hop latency
	// for path-setup and acknowledgement packets.
	SetupHopCycles int

	// RetryBackoffCycles delays a source's retry after a blocked setup.
	RetryBackoffCycles int

	// MaxFlits is the largest packet length, for diagnostics.
	MaxFlits int

	// Events, when non-nil, receives protocol events.
	Events *event.Log
}

// phase is a path's protocol state.
type phase int

const (
	phaseSetup phase = iota + 1
	phaseStreaming
)

// path is a source node's circuit in flight; the zero path (nil pkt) is a
// node with none.
type path struct {
	src, dst int
	pkt      *packet.Packet
	vc       int
	turns    int
	state    phase
	// readyAt is when streaming may begin (setup + ack round trip).
	readyAt sim.Cycle
	window  xbar.Window
	credit  units.BitCredit
}

// Network is the torus transport: it drains each cluster's transmit port
// and delivers into each cluster's receive engine, replacing the crossbar
// TX engines.
type Network struct {
	cfg    Config
	side   int
	tx     []*router.Port
	rxs    []*xbar.RX
	ledger *photonic.Ledger
	onDrop xbar.DropHandler

	// perCycle is what a circuit, one link's whole band, carries per cycle.
	perCycle units.BitCredit

	linkOwner map[linkID]*path // derived: Restore rebuilds it from the restored circuits

	// routes holds each source node's route, written by Route into an
	// array sized at build for the longest one. A source routes only
	// while it holds no circuit, so its circuit's links stay put until
	// teardown empties them; Restore recomputes them from the restored
	// circuits.
	routes [][]linkID

	state
}

// state is the network's checkpointed part: the per-node circuits (from
// which the routes and the link ownership map are rebuilt), the per-node
// retry and arbitration state, and the counters. A circuit is a plain
// value.
type state struct {
	active  []path // per source node, sized at build; linkOwner points into it
	retryAt []sim.Cycle
	rr      []int

	pathsSetUp    int64
	setupsBlocked int64
}

// copyFrom makes dst a copy of src that shares no backing array with it,
// reusing dst's arrays.
func (dst *state) copyFrom(src *state) {
	keep := *dst
	*dst = *src
	dst.active = append(keep.active[:0], src.active...)
	dst.retryAt = append(keep.retryAt[:0], src.retryAt...)
	dst.rr = append(keep.rr[:0], src.rr...)
}

// New builds the torus over the given per-cluster transmit ports and
// receive engines.
func New(cfg Config, tx []*router.Port, rxs []*xbar.RX, ledger *photonic.Ledger, onDrop xbar.DropHandler) (*Network, error) {
	side := intSqrt(cfg.Nodes)
	if side*side != cfg.Nodes || side < 2 {
		return nil, fmt.Errorf("torus: %d nodes is not a usable square grid", cfg.Nodes)
	}
	if len(tx) != cfg.Nodes || len(rxs) != cfg.Nodes {
		return nil, fmt.Errorf("torus: %d tx ports and %d receivers for %d nodes", len(tx), len(rxs), cfg.Nodes)
	}
	if cfg.ClockHz <= 0 || cfg.SetupHopCycles <= 0 || cfg.RetryBackoffCycles <= 0 {
		return nil, fmt.Errorf("torus: timing parameters must be positive")
	}
	perWavelength, err := photonic.WavelengthCredit(cfg.ClockHz)
	if err != nil {
		return nil, fmt.Errorf("torus: wavelength rate per cycle: %w", err)
	}
	routes := make([][]linkID, cfg.Nodes)
	for src := range routes {
		routes[src] = make([]linkID, 0, 2*(side/2))
	}
	return &Network{
		cfg:       cfg,
		side:      side,
		tx:        tx,
		rxs:       rxs,
		ledger:    ledger,
		onDrop:    onDrop,
		perCycle:  perWavelength * units.BitCredit(cfg.Bundle.WavelengthsPerWaveguide),
		linkOwner: make(map[linkID]*path),
		routes:    routes,
		state: state{
			active:  make([]path, cfg.Nodes),
			retryAt: make([]sim.Cycle, cfg.Nodes),
			rr:      make([]int, cfg.Nodes),
		},
	}, nil
}

func intSqrt(n int) int {
	for s := 0; s*s <= n; s++ {
		if s*s == n {
			return s
		}
	}
	return 0
}

// PathsSetUp returns completed circuit establishments.
func (n *Network) PathsSetUp() int64 { return n.pathsSetUp }

// SetupsBlocked returns setups abandoned because a link was held.
func (n *Network) SetupsBlocked() int64 { return n.setupsBlocked }

// Route computes the dimension-order (X then Y) folded-torus route from
// src to dst: the directed links traversed and the number of 90-degree
// turns the light makes through PSEs. The links are src's route buffer,
// which the next Route from src overwrites.
func (n *Network) Route(src, dst int) (links []linkID, turns int) {
	links = n.routes[src][:0]
	sx, sy := src%n.side, src/n.side
	dx, dy := dst%n.side, dst/n.side

	stepX, distX := torusStep(sx, dx, n.side)
	stepY, distY := torusStep(sy, dy, n.side)

	x, y := sx, sy
	for i := 0; i < distX; i++ {
		dir := East
		if stepX < 0 {
			dir = West
		}
		links = append(links, linkID{node: y*n.side + x, dir: dir})
		x = mod(x+stepX, n.side)
	}
	for i := 0; i < distY; i++ {
		dir := South
		if stepY < 0 {
			dir = North
		}
		links = append(links, linkID{node: y*n.side + x, dir: dir})
		y = mod(y+stepY, n.side)
	}
	if distX > 0 && distY > 0 {
		turns = 1 // one X->Y turn through a PSE
	}
	return links, turns
}

// torusStep returns the direction (+1/-1) and distance of the shortest
// wrap-around walk from a to b on a ring of the given size.
func torusStep(a, b, size int) (step, dist int) {
	if a == b {
		return 0, 0
	}
	forward := mod(b-a, size)
	backward := mod(a-b, size)
	if forward <= backward {
		return 1, forward
	}
	return -1, backward
}

func mod(a, m int) int {
	return ((a % m) + m) % m
}

// Tick advances the torus one cycle: sources with ready headers attempt
// path setup; established circuits stream flits.
func (n *Network) Tick(now sim.Cycle) error {
	for src := range n.active {
		p := &n.active[src]
		if p.pkt == nil {
			n.trySetup(src, now)
			continue
		}
		switch p.state {
		case phaseSetup:
			if now >= p.readyAt {
				// Acknowledgement arrived: gate the destination's
				// detectors on the full link DWDM and stream.
				p.window = n.rxs[p.dst].Begin(p.pkt, n.cfg.Bundle.WavelengthsPerWaveguide)
				p.state = phaseStreaming
				p.credit = 0
				n.cfg.Events.AppendInts(now, event.StreamStarted, src, int64(p.pkt.ID),
					"torus path to %d, %d hops", int64(p.dst), int64(len(n.routes[src])))
			}
		case phaseStreaming:
			if err := n.stream(p, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// trySetup scans the source's transmit VCs for a ready header and attempts
// to reserve its route.
func (n *Network) trySetup(src int, now sim.Cycle) {
	if now < n.retryAt[src] {
		return
	}
	port := n.tx[src]
	if port.BufferedFlits() == 0 {
		return
	}
	vcs := port.VCCount()
	for scan := 0; scan < vcs; scan++ {
		vc := (n.rr[src] + scan) % vcs
		pkt, isHdr, ok := port.HeadReady(vc, now)
		if !ok || !isHdr {
			continue
		}
		n.rr[src] = (vc + 1) % vcs

		dst := int(pkt.DstCluster)
		links, turns := n.Route(src, dst)

		// The electronic setup packet costs one control-router
		// traversal per hop regardless of outcome.
		setupBits := packet.ReservationBits(n.cfg.Nodes, n.cfg.MaxFlits, n.cfg.Bundle, 0)
		n.ledger.Add(photonic.EnergyRouter, int64(setupBits*len(links)))

		n.routes[src] = links
		for _, l := range links {
			if n.linkOwner[l] != nil {
				// Blocked: a path-blocked packet returns to the source
				// (already-checked links were provisionally held and
				// release immediately in this atomic model).
				n.setupsBlocked++
				n.routes[src] = links[:0]
				n.retryAt[src] = now + sim.Cycle(n.cfg.RetryBackoffCycles)
				n.cfg.Events.AppendInts(now, event.ReservationSent, src, int64(pkt.ID),
					"torus setup to %d BLOCKED at node %d dir %d", int64(dst), int64(l.node), int64(l.dir))
				return
			}
		}
		p := &n.active[src]
		*p = path{
			src:   src,
			dst:   dst,
			pkt:   pkt,
			vc:    vc,
			turns: turns,
			state: phaseSetup,
			// Setup walks to the destination and the ACK returns.
			readyAt: now + sim.Cycle(2*len(links)*n.cfg.SetupHopCycles),
		}
		for _, l := range links {
			n.linkOwner[l] = p
		}
		n.pathsSetUp++
		n.cfg.Events.AppendInts(now, event.ReservationSent, src, int64(pkt.ID),
			"torus setup to %d, %d hops, %d turns", int64(dst), int64(len(links)), int64(turns))
		return
	}
}

// stream moves flits along the established circuit at the full link rate.
func (n *Network) stream(p *path, now sim.Cycle) error {
	flitBits := units.Bits(p.pkt.FlitBits)
	p.credit = min(p.credit, flitBits) + n.perCycle
	p.window.HoldCost()

	port := n.tx[p.src]
	for p.credit >= flitBits {
		pkt, _, ok := port.HeadReady(p.vc, now)
		if !ok {
			return nil
		}
		if pkt.ID != p.pkt.ID {
			return fmt.Errorf("torus: node %d VC %d interleaved packets %d and %d",
				p.src, p.vc, pkt.ID, p.pkt.ID)
		}
		popped, err := port.Pop(p.vc)
		if err != nil {
			return err
		}
		p.credit -= flitBits
		// Launch + modulation + tuning at the source; the PSE turns add
		// no per-bit energy in this model, only path loss (see the link
		// budget module).
		n.ledger.AddPhotonicTransmit(int64(p.pkt.FlitBits))
		if err := p.window.Deliver(popped, now); err != nil {
			return err
		}
		if popped.Type.IsTail() {
			n.teardown(p, now)
			return nil
		}
	}
	return nil
}

// teardown releases the circuit after the tail flit.
func (n *Network) teardown(p *path, now sim.Cycle) {
	if p.window.Dropped() {
		n.cfg.Events.AppendInts(now, event.PacketDropped, p.dst, int64(p.pkt.ID),
			"torus, from node %d", int64(p.src))
		if n.onDrop != nil {
			n.onDrop(p.pkt, now)
		}
	} else {
		n.cfg.Events.AppendInts(now, event.PacketArrived, p.dst, int64(p.pkt.ID),
			"torus, from node %d", int64(p.src))
	}
	for _, l := range n.routes[p.src] {
		delete(n.linkOwner, l)
	}
	n.routes[p.src] = n.routes[p.src][:0]
	*p = path{}
}
