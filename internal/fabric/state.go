package fabric

import (
	"hetpnoc/internal/packet"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/traffic"
)

// state is the fabric's own checkpointed part: the clock, randomness and
// ID counters, the workload, the activity bitsets and the pending work.
// Everything else a checkpoint carries is a component's state (see
// Checkpoint).
type state struct {
	now sim.Cycle
	rng sim.RNG

	// seed is the seed the result reports. It starts as cfg.Seed and is
	// replaced by Reseed when a restored checkpoint forks a replica.
	seed uint64

	// loadScale is the offered-load multiplier. It starts as
	// cfg.LoadScale and is replaced by SetLoadScale when a restored
	// checkpoint forks a member at another load.
	loadScale float64

	// assignment is the installed workload mapping. A remap replaces it
	// whole and never mutates one in place, so a copy shares its tables.
	assignment traffic.Assignment
	msgIDs     packet.MessageID
	pktIDs     packet.ID

	// occupancy is the fabric-wide buffered-flit count the arena
	// maintains through its pointer.
	occupancy int64

	// skipped counts the cycles StepContext advanced over without
	// calling Step.
	skipped int64

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

	// probe is the sampled trace, preallocated at New for the whole run.
	probe Probe

	// retx holds the dropped packets waiting out their retransmission
	// back-off (§1.4), oldest drop first. The back-off is one constant,
	// so due cycles never decrease along the queue.
	retx []retransmit
}

// copyFrom makes dst a copy of src that shares no backing array with it,
// reusing dst's arrays. The bitsets keep their own words, so the ports
// holding pointers to them wake the restored sets.
func (dst *state) copyFrom(src *state) {
	keep := *dst
	*dst = *src
	dst.routerActive = keep.routerActive.Refill(src.routerActive)
	dst.txActive = keep.txActive.Refill(src.txActive)
	dst.injActive = keep.injActive.Refill(src.injActive)
	dst.ejectActive = keep.ejectActive.Refill(src.ejectActive)
	dst.probe.Rows = append(keep.probe.Rows[:0], src.probe.Rows...)
	dst.probe.AllocatedWavelengths = append(keep.probe.AllocatedWavelengths[:0], src.probe.AllocatedWavelengths...)
	dst.probe.BusyCycles = append(keep.probe.BusyCycles[:0], src.probe.BusyCycles...)
	clear(keep.retx) // drop the packet pointers past the copy
	dst.retx = append(keep.retx[:0], src.retx...)
}

// retransmit is one dropped packet and the cycle its next attempt
// re-enters the source queue.
type retransmit struct {
	due sim.Cycle
	pkt *packet.Packet
}
