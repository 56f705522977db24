package router

import (
	"fmt"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// eqRoutes maps a destination core to the output it leaves through.
var eqRoutes = []int16{0, 1, 2, 1, 0, 2}

func eqRoute(f packet.Flit) int { return int(eqRoutes[f.Packet.Dst]) }

// refRouter is the reference the kernel's comments cite: the 3-stage
// wormhole arbitration written as a plain walk over port objects. Per
// output in index order it visits positions (rr+scan) mod candidates with
// rr read live, asks the routing function at every header visit, and keeps
// its own per-VC path locks. It touches ports only through Head, AllocVC,
// Space, Pop and Enqueue and has no masks, no quiescence and no cached
// route, so it shares no arbitration code with Router.Tick.
type refRouter struct {
	in     []*Port
	widths []int
	outs   []refOutput
	route  RouteFunc
	ledger *photonic.Ledger
	locks  [][]refLock // [input][vc]
}

type refOutput struct {
	dst    *Port
	width  int
	rr     int
	charge bool
}

// refLock is the path a forwarded header locked for the rest of its packet.
type refLock struct {
	routed  bool
	out, vc int
}

func (r *refRouter) tick(now sim.Cycle) error {
	candidates := 0
	for _, in := range r.in {
		candidates += in.VCCount()
	}
	budget := append([]int(nil), r.widths...)
	for o := range r.outs {
		out := &r.outs[o]
		for scan, granted := 0, 0; scan < candidates && granted < out.width; scan++ {
			t := (out.rr + scan) % candidates
			in, vc := 0, t
			for vc >= r.in[in].VCCount() {
				vc -= r.in[in].VCCount()
				in++
			}
			if budget[in] == 0 {
				continue
			}
			if _, _, ready := r.in[in].HeadReady(vc, now); !ready {
				continue
			}
			fl, _ := r.in[in].head(vc)
			lock := &r.locks[in][vc]
			if fl.Type.IsHeader() && !lock.routed {
				if r.route(fl) != o {
					continue
				}
				dstVC, ok := out.dst.AllocVC(fl.Packet.ID)
				if !ok {
					continue
				}
				*lock = refLock{routed: true, out: o, vc: dstVC}
			} else if !lock.routed || lock.out != o {
				continue
			}
			if out.dst.Space(lock.vc) == 0 {
				continue
			}
			popped, err := r.in[in].Pop(vc)
			if err != nil {
				return err
			}
			if err := out.dst.Enqueue(lock.vc, popped, now); err != nil {
				return err
			}
			r.ledger.Add(photonic.EnergyRouter, int64(popped.Bits()))
			if out.charge {
				r.ledger.Add(photonic.EnergyWireLink, int64(popped.Bits()))
			}
			if popped.Type.IsTail() {
				*lock = refLock{}
			}
			budget[in]--
			granted++
			out.rr = (t + 1) % candidates
		}
	}
	return nil
}

// eqRig is one 3-input/3-output switch whose downstream ports are short
// of VCs (1, 2 and 3 of them) and of buffer space, so headers wait on VC
// exhaustion and routed streams stall on backpressure. The third
// downstream port lives in its own arena, like the standalone ports of
// the small rigs. The ports are arbitrated either by a Router or by a
// refRouter.
type eqRig struct {
	in, out []*Port
	tick    func(sim.Cycle) error
	rr      func() []int
	ledger  *photonic.Ledger
	occ     int64
}

func newEqRig(t testing.TB, reference bool) *eqRig {
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
	inWidths, outWidths := []int{2, 1, 2}, []int{1, 2, 2}
	if reference {
		ref := &refRouter{in: g.in, widths: inWidths, route: eqRoute, ledger: g.ledger}
		for _, in := range g.in {
			ref.locks = append(ref.locks, make([]refLock, in.VCCount()))
		}
		for o, width := range outWidths {
			ref.outs = append(ref.outs, refOutput{dst: g.out[o], width: width, charge: o != 1})
		}
		g.tick = ref.tick
		g.rr = func() []int {
			var rr []int
			for _, out := range ref.outs {
				rr = append(rr, out.rr)
			}
			return rr
		}
		return g
	}
	r, err := New("eq", g.in, inWidths, eqRoute, g.ledger)
	if err != nil {
		t.Fatal(err)
	}
	for o, width := range outWidths {
		if _, err := r.AddOutput(g.out[o], width, o != 1); err != nil {
			t.Fatal(err)
		}
	}
	g.tick = r.Tick
	g.rr = func() []int { return r.RRState(nil) }
	return g
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

		if err := g.tick(now); err != nil {
			return records, err
		}

		// Drain downstream in phases, from nearly stalled to nearly free.
		var popped []string
		p := drainP[(int(now)/48)%len(drainP)]
		for o, out := range g.out {
			for vc := 0; vc < out.VCCount(); vc++ {
				if out.Len(vc) == 0 || !rng.Bernoulli(p) {
					continue
				}
				fl, err := out.Pop(vc)
				if err != nil {
					return records, err
				}
				popped = append(popped, fmt.Sprintf("%d.%d:%d/%d", o, vc, fl.Packet.ID, fl.Seq))
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
			popped, g.rr(), buffered, owners, g.occ, ledgerState(g.ledger)))
	}
	return records, nil
}

// checkReferenceEquivalence runs the same seeded workload through the
// kernel and the reference scan and fails at the first cycle whose records
// differ. The reference visits every candidate at every output on every
// cycle; it is the oracle for the kernel's enqueue-time routes, persistent
// masks, quiescence and waiting-header filter.
func checkReferenceEquivalence(t testing.TB, seed uint64, cycles int) {
	t.Helper()
	want, err := newEqRig(t, true).run(seed, cycles)
	if err != nil {
		t.Fatalf("seed %d: reference rig: %v", seed, err)
	}
	got, err := newEqRig(t, false).run(seed, cycles)
	if err != nil {
		t.Fatalf("seed %d: kernel rig: %v", seed, err)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("seed %d: Router.Tick and the reference scan diverge at cycle %d:\n  kernel    %s\n  reference %s",
				seed, c, got[c], want[c])
		}
	}
}

// TestRouterReferenceEquivalence: Router.Tick makes exactly the grants of
// the reference scan, cycle for cycle, while downstream ports run out of
// VCs and drain at random.
func TestRouterReferenceEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		checkReferenceEquivalence(t, seed, 600)
	}
}

func FuzzRouterReferenceEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(600))
	f.Add(uint64(0x9e3779b97f4a7c15), uint16(150))
	f.Fuzz(func(t *testing.T, seed uint64, cycles uint16) {
		checkReferenceEquivalence(t, seed, int(cycles)%1024)
	})
}

// ledgerState is l's checkpoint, for comparing ledgers.
func ledgerState(l *photonic.Ledger) (s photonic.LedgerSnapshot) {
	l.Snapshot(&s)
	return s
}
