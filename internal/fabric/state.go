package fabric

import (
	"hetpnoc/internal/packet"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
)

// fabricState is the flat per-cycle mutable simulation state, grouped so
// checkpointing and the batched-replica engine can treat it as one unit.
// Every port and VC of the fabric lives in the shared struct-of-arrays
// arena; the activity bitsets drive the per-phase scheduling scans; the
// core states are stored by value in one contiguous slice.
type fabricState struct {
	// arena backs every Port in the fabric (switch inputs, photonic
	// router inputs, transmit, receive and eject ports) with flat
	// (port, vc)-indexed slices and per-port occupancy bitmasks.
	arena *router.Arena

	// cores is the per-core runtime, indexed by CoreID. Pointers into
	// the slice stay valid for the fabric's lifetime: it is sized once
	// at build and never reallocated.
	cores []coreState

	// Activity tracking: a component is on its active set exactly while
	// it may have work, so idle cycles cost O(active) instead of
	// O(everything). Ports wake their consumer on every
	// empty-to-non-empty transition; the scheduler deregisters a
	// component when it drains.
	routerActive sim.Bitset
	txActive     sim.Bitset
	injActive    sim.Bitset
	ejectActive  sim.Bitset

	// nextRemap indexes the first entry of Fabric.remaps that has not
	// fired yet.
	nextRemap int

	// retx holds the dropped packets waiting out their retransmission
	// back-off (§1.4), oldest drop first. The back-off is one constant,
	// so due cycles never decrease along the queue.
	retx []retransmit
}

// retransmit is one dropped packet and the cycle its next attempt
// re-enters the source queue.
type retransmit struct {
	due sim.Cycle
	pkt *packet.Packet
}
