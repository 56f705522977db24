package torus

import (
	"testing"
	"testing/quick"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// checkInvariants verifies the torus's structural invariants after any
// protocol activity: every held link belongs to exactly one active path,
// every active path's links are all held by it, and a node has at most
// one outstanding circuit as source.
func (n *Network) checkInvariants() error {
	activePaths := make(map[*path]bool)
	for src := range n.active {
		p := &n.active[src]
		if p.pkt == nil {
			if len(n.routes[src]) != 0 {
				return errf("idle slot %d still lists links", src)
			}
			continue
		}
		if p.src != src {
			return errf("path at slot %d claims source %d", src, p.src)
		}
		activePaths[p] = true
		for _, l := range n.routes[src] {
			if n.linkOwner[l] != p {
				return errf("path %d->%d link %v not held by it", p.src, p.dst, l)
			}
		}
	}
	for l, p := range n.linkOwner {
		if p == nil {
			return errf("nil owner recorded for link %v", l)
		}
		if !activePaths[p] {
			return errf("link %v held by a dead path %d->%d", l, p.src, p.dst)
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return &invariantError{msg: format, args: args}
}

type invariantError struct {
	msg  string
	args []any
}

func (e *invariantError) Error() string { return e.msg }

// TestTorusInvariantsUnderRandomTraffic drives randomized packet
// workloads and checks the circuit bookkeeping every cycle.
//
// The property test samples random workloads on purpose; each trial
// re-seeds from quick's seed argument, so any failure replays from
// the printed counterexample.
func TestTorusInvariantsUnderRandomTraffic(t *testing.T) {
	run := func(seed uint64) bool {
		r := newRig(t)
		rng := sim.NewRNG(seed)
		nextID := packet.ID(1)

		for now := sim.Cycle(0); now < 800; now++ {
			// Random injections.
			if rng.Bernoulli(0.2) {
				src := rng.Intn(16)
				dst := rng.Intn(16)
				if dst == src {
					dst = (dst + 1) % 16
				}
				pkt := &packet.Packet{
					ID: nextID, Flits: rng.Intn(16) + 1, FlitBits: 32,
					SrcCluster: topology.ClusterID(src), DstCluster: topology.ClusterID(dst),
				}
				if vc, ok := r.tx[src].AllocVC(pkt.ID); ok {
					nextID++
					for i := 0; i < pkt.Flits; i++ {
						if err := r.tx[src].Enqueue(vc, packet.FlitAt(pkt, i), now); err != nil {
							return false
						}
					}
				}
			}
			if err := r.net.Tick(now); err != nil {
				return false
			}
			if err := r.net.checkInvariants(); err != nil {
				t.Logf("seed %d cycle %d: %v", seed, now, err)
				return false
			}
			// Drain destinations so receive VCs recycle.
			for node := 0; node < 16; node++ {
				for vc := 0; vc < r.rxPort[node].VCCount(); vc++ {
					for r.rxPort[node].Len(vc) > 0 {
						if _, err := r.rxPort[node].Pop(vc); err != nil {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
