package router

import (
	"fmt"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// eqRoutes maps a destination core to the output it leaves through; the
// tabled rig installs it with SetRouteTable, the untabled rig reads it from
// its routing function.
var eqRoutes = []int16{0, 1, 2, 1, 0, 2}

// eqRig is one 3-input/3-output router whose downstream ports are short
// of VCs (1, 2 and 3 of them) and of buffer space, so headers wait on VC
// exhaustion and routed streams stall on backpressure. The third
// downstream port lives in its own arena, like the standalone ports of
// the small rigs.
type eqRig struct {
	r      *Router
	in     []*Port
	out    []*Port
	ledger *photonic.Ledger
	occ    int64
}

func newEqRig(t testing.TB, tabled bool) *eqRig {
	t.Helper()
	g := &eqRig{ledger: photonic.NewLedger(photonic.DefaultEnergyParams())}
	g.ledger.StartMeasurement()
	arena, err := NewArena(g.ledger, &g.occ)
	if err != nil {
		t.Fatal(err)
	}
	port := func(p *Port, err error) *Port {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for i := 0; i < 3; i++ {
		g.in = append(g.in, port(arena.NewPort(4, 6)))
	}
	g.out = []*Port{
		port(arena.NewPort(1, 3)),
		port(arena.NewPort(2, 2)),
		port(NewPort(3, 8, g.ledger, &g.occ)),
	}
	route := func(f packet.Flit) int { return int(eqRoutes[f.Packet.Dst]) }
	g.r, err = New("eq", g.in, []int{2, 1, 2}, route, g.ledger)
	if err != nil {
		t.Fatal(err)
	}
	if tabled {
		g.r.SetRouteTable(eqRoutes)
	}
	for o, width := range []int{1, 2, 2} {
		if _, err := g.r.AddOutput(g.out[o], width, o != 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// upstream reports whether any input VC still belongs to packet id.
func (g *eqRig) upstream(id packet.ID) bool {
	for _, in := range g.in {
		for vc := 0; vc < in.VCCount(); vc++ {
			if in.Owner(vc) == id {
				return true
			}
		}
	}
	return false
}

// run drives the rig for the given cycles with a workload drawn from
// seed and the rig's own state, and returns one record per cycle: the
// flits popped downstream, the round-robin cursors, every port's
// buffered count, every downstream VC's owner and the ledger totals. Two
// rigs that arbitrate identically draw identical workloads and return
// identical records; the first difference in arbitration shows up in the
// record of the cycle it happens in.
func (g *eqRig) run(seed uint64, cycles int) ([]string, error) {
	type feed struct {
		pkt          *packet.Packet
		in, vc, next int
	}
	rng := sim.NewRNG(seed)
	var feeds []feed
	nextID := packet.ID(1)
	drainP := []float64{0.05, 0.3, 0.8}
	records := make([]string, 0, cycles)
	for now := sim.Cycle(0); now < sim.Cycle(cycles); now++ {
		// New packets claim input VCs; their flits trickle in over the
		// following cycles, so headers wait alone and routed VCs run dry.
		for i, in := range g.in {
			if !rng.Bernoulli(0.5) {
				continue
			}
			pkt := &packet.Packet{ID: nextID, Flits: 1 + rng.Intn(5), FlitBits: 32, Dst: topology.CoreID(rng.Intn(len(eqRoutes)))}
			if vc, ok := in.AllocVC(pkt.ID); ok {
				feeds = append(feeds, feed{pkt: pkt, in: i, vc: vc})
				nextID++
			}
		}
		kept := feeds[:0]
		for _, f := range feeds {
			in := g.in[f.in]
			for n := rng.Intn(3); n > 0 && f.next < f.pkt.Flits && in.Space(f.vc) > 0; n-- {
				if err := in.Enqueue(f.vc, packet.FlitAt(f.pkt, f.next), now); err != nil {
					return records, err
				}
				f.next++
			}
			if f.next < f.pkt.Flits {
				kept = append(kept, f)
			}
		}
		feeds = kept

		if err := g.r.Tick(now); err != nil {
			return records, err
		}

		// Drain downstream in phases, from nearly stalled to nearly free.
		var popped []string
		p := drainP[(int(now)/48)%len(drainP)]
		for o, out := range g.out {
			for vc := 0; vc < out.VCCount(); vc++ {
				if out.VC(vc).Len() == 0 || !rng.Bernoulli(p) {
					continue
				}
				fl, err := out.Pop(vc)
				if err != nil {
					return records, err
				}
				popped = append(popped, fmt.Sprintf("%d.%d:%d/%d", o, vc, fl.Packet.ID, fl.Seq))
			}
		}
		// Now and then the receiver discards the rest of a packet that
		// has fully left the router, freeing the downstream VC without a
		// tail pop ...
		if rng.Bernoulli(0.05) {
			out := g.out[rng.Intn(len(g.out))]
			vc := rng.Intn(out.VCCount())
			if id := out.Owner(vc); id != 0 && !g.upstream(id) {
				out.ReleaseOwner(vc)
			}
		}
		// ... and a sender gives up on a packet whose header is still
		// waiting in the router.
		if rng.Bernoulli(0.03) {
			i := rng.Intn(len(g.in))
			in := g.in[i]
			vc := rng.Intn(in.VCCount())
			if in.Owner(vc) != 0 && in.a.hot[in.a.vcBase[in.id]+int32(vc)].flags&vcRouted == 0 {
				in.ReleaseOwner(vc)
				kept := feeds[:0]
				for _, f := range feeds {
					if f.in != i || f.vc != vc {
						kept = append(kept, f)
					}
				}
				feeds = kept
			}
		}

		var buffered []int
		var owners []packet.ID
		for _, in := range g.in {
			buffered = append(buffered, in.BufferedFlits())
		}
		for _, out := range g.out {
			buffered = append(buffered, out.BufferedFlits())
			for vc := 0; vc < out.VCCount(); vc++ {
				owners = append(owners, out.Owner(vc))
			}
		}
		records = append(records, fmt.Sprintf("popped=%v rr=%v buffered=%v owners=%v occ=%d ledger=%v",
			popped, g.r.RRState(nil), buffered, owners, g.occ, g.ledger.Snapshot()))
	}
	return records, nil
}

// checkTabledEquivalence runs the same seeded workload through a tabled
// and an untabled rig and fails at the first cycle whose records differ.
// The untabled router rebuilds its scratch from the buffers every Tick
// and visits every contender; it is the oracle for the tabled router's
// persistent masks, its quiescence and its waiting-header filter.
func checkTabledEquivalence(t testing.TB, seed uint64, cycles int) {
	t.Helper()
	want, err := newEqRig(t, false).run(seed, cycles)
	if err != nil {
		t.Fatalf("seed %d: untabled rig: %v", seed, err)
	}
	got, err := newEqRig(t, true).run(seed, cycles)
	if err != nil {
		t.Fatalf("seed %d: tabled rig: %v", seed, err)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("seed %d: tabled and untabled routers diverge at cycle %d:\n  tabled   %s\n  untabled %s",
				seed, c, got[c], want[c])
		}
	}
}

// TestRouterTabledEquivalence: a router with a route table makes exactly
// the grants of one without, cycle for cycle, while downstream ports run
// out of VCs, drain at random and drop packets.
func TestRouterTabledEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		checkTabledEquivalence(t, seed, 600)
	}
}

func FuzzRouterTabledEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(600))
	f.Add(uint64(0x9e3779b97f4a7c15), uint16(150))
	f.Fuzz(func(t *testing.T, seed uint64, cycles uint16) {
		checkTabledEquivalence(t, seed, int(cycles)%1024)
	})
}
