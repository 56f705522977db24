package torus

import "fmt"

// NetworkSnapshot is a checkpoint of the torus transport: a copy of its
// state.
type NetworkSnapshot = state

// Snapshot copies the network's state into dst, reusing its arrays.
func (n *Network) Snapshot(dst *NetworkSnapshot) { dst.copyFrom(&n.state) }

// Restore rewinds the network to a snapshot, rebuilding the routes and
// the link ownership map from the restored circuits.
func (n *Network) Restore(s *NetworkSnapshot) error {
	if len(s.active) != len(n.active) {
		return fmt.Errorf("torus: snapshot has %d nodes, network has %d", len(s.active), len(n.active))
	}
	n.state.copyFrom(s)
	for l := range n.linkOwner {
		delete(n.linkOwner, l)
	}
	for src := range n.active {
		p := &n.active[src]
		n.routes[src] = n.routes[src][:0]
		if p.pkt == nil {
			continue
		}
		n.routes[src], _ = n.Route(src, p.dst)
		for _, l := range n.routes[src] {
			n.linkOwner[l] = p
		}
	}
	return nil
}
