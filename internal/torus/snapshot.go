package torus

import (
	"fmt"

	"hetpnoc/internal/sim"
)

// NetworkSnapshot is a checkpoint of the torus transport: the per-node
// circuits (from which the link ownership map is rebuilt), the per-node
// retry and arbitration state, and the counters. A circuit is a plain
// value; its link list is shared with the live path — Route builds it
// once and never mutates it afterwards.
type NetworkSnapshot struct {
	active  []path
	retryAt []sim.Cycle
	rr      []int

	pathsSetUp    int64
	setupsBlocked int64
	packetsSent   int64
}

// Snapshot copies the network's mutable state.
func (n *Network) Snapshot() *NetworkSnapshot {
	return &NetworkSnapshot{
		active:        append([]path(nil), n.active...),
		retryAt:       append([]sim.Cycle(nil), n.retryAt...),
		rr:            append([]int(nil), n.rr...),
		pathsSetUp:    n.pathsSetUp,
		setupsBlocked: n.setupsBlocked,
		packetsSent:   n.packetsSent,
	}
}

// Restore rewinds the network to a snapshot, rebuilding the link
// ownership map from the restored circuits.
func (n *Network) Restore(s *NetworkSnapshot) error {
	if len(s.active) != len(n.active) {
		return fmt.Errorf("torus: snapshot has %d nodes, network has %d", len(s.active), len(n.active))
	}
	copy(n.retryAt, s.retryAt)
	copy(n.rr, s.rr)
	n.pathsSetUp = s.pathsSetUp
	n.setupsBlocked = s.setupsBlocked
	n.packetsSent = s.packetsSent
	//hetpnoc:orderfree deletes every key; the visit order is invisible
	for l := range n.linkOwner {
		delete(n.linkOwner, l)
	}
	copy(n.active, s.active)
	for src := range n.active {
		p := &n.active[src]
		for _, l := range p.links {
			n.linkOwner[l] = p
		}
	}
	return nil
}
