package router

import (
	"testing"
	"testing/quick"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
)

// chainFabric wires two routers in series:
//
//	inject -> R1 -> R2 -> sink
//
// and drives randomized packet sequences through them.
type chainFabric struct {
	r1, r2 *Router
	in     *Port
	mid    *Port
	sink   *Port
	occ    int64
}

func newChain(t testing.TB, vcs, depth int) *chainFabric {
	t.Helper()
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	f := &chainFabric{}
	mk := func() *Port {
		p, err := NewPort(vcs, depth, ledger, &f.occ)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	f.in = mk()
	f.mid = mk()
	f.sink = mk()

	route := func(packet.Flit) int { return 0 }
	r1, err := New("r1", []*Port{f.in}, []int{2}, route, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.AddOutput(f.mid, 2, true); err != nil {
		t.Fatal(err)
	}
	r2, err := New("r2", []*Port{f.mid}, []int{2}, route, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.AddOutput(f.sink, 2, true); err != nil {
		t.Fatal(err)
	}
	f.r1, f.r2 = r1, r2
	return f
}

// TestChainConservesAndOrdersFlits is the conservation property promised
// in DESIGN.md: for arbitrary randomized packet workloads, every injected
// flit is either still buffered or has arrived, per-packet FIFO order
// survives two hops, and nothing is duplicated.
//
// The property test samples random workloads on purpose; each trial
// re-seeds from quick's seed argument, so any failure replays from
// the printed counterexample.
func TestChainConservesAndOrdersFlits(t *testing.T) {
	run := func(seed uint64, nPackets uint8) bool {
		f := newChain(t, 8, 32)
		rng := sim.NewRNG(seed)
		packets := int(nPackets)%12 + 1

		type pending struct {
			pkt  *packet.Packet
			vc   int
			next int
		}
		var queue []*pending
		for i := 0; i < packets; i++ {
			queue = append(queue, &pending{
				pkt: &packet.Packet{ID: packet.ID(i + 1), Flits: rng.Intn(20) + 1, FlitBits: 32},
			})
		}

		injected := 0
		totalFlits := 0
		for _, p := range queue {
			totalFlits += p.pkt.Flits
		}

		arrived := make(map[packet.ID]int)
		drain := func(now sim.Cycle) bool {
			for vc := 0; vc < f.sink.VCCount(); vc++ {
				for {
					if _, _, ready := f.sink.HeadReady(vc, now); !ready {
						break
					}
					fl, _ := f.sink.head(vc)
					if _, err := f.sink.Pop(vc); err != nil {
						return false
					}
					if fl.Seq != arrived[fl.Packet.ID] {
						return false // out of order or duplicated
					}
					arrived[fl.Packet.ID]++
				}
			}
			return true
		}

		active := map[*pending]bool{}
		for now := sim.Cycle(0); now < 1200; now++ {
			// Randomized injection: start packets at random times, feed
			// their flits as space allows.
			if len(queue) > 0 && rng.Bernoulli(0.3) {
				p := queue[0]
				if vc, ok := f.in.AllocVC(p.pkt.ID); ok {
					p.vc = vc
					queue = queue[1:]
					active[p] = true
				}
			}
			for p := range active {
				for moved := 0; moved < 2 && p.next < p.pkt.Flits && f.in.Space(p.vc) > 0; moved++ {
					if err := f.in.Enqueue(p.vc, packet.FlitAt(p.pkt, p.next), now); err != nil {
						return false
					}
					p.next++
					injected++
				}
				if p.next == p.pkt.Flits {
					delete(active, p)
				}
			}
			if err := f.r1.Tick(now); err != nil {
				return false
			}
			if err := f.r2.Tick(now); err != nil {
				return false
			}
			if !drain(now) {
				return false
			}
		}

		// Everything injected must have arrived (the run is long enough
		// to drain), and nothing beyond it.
		got := 0
		for _, n := range arrived {
			got += n
		}
		if injected != totalFlits || got != totalFlits {
			return false
		}
		if f.occ != 0 {
			return false // flits stranded in buffers
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
