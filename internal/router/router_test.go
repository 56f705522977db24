package router

import (
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
)

// testFabric is a single router with one input and two outputs, routing by
// destination cluster parity.
type testFabric struct {
	r      *Router
	in     *Port
	out    [2]*Port
	ledger *photonic.Ledger
	occ    int64
}

func newTestFabric(t *testing.T, vcs, depth int) *testFabric {
	return newTestFabricDepths(t, vcs, depth, depth)
}

// newTestFabricDepths builds the fabric with different input and
// downstream buffer depths (backpressure tests need a deep input feeding
// shallow outputs).
func newTestFabricDepths(t *testing.T, vcs, inDepth, outDepth int) *testFabric {
	t.Helper()
	f := &testFabric{ledger: photonic.NewLedger(photonic.DefaultEnergyParams())}
	f.ledger.StartMeasurement()
	mk := func(depth int) *Port {
		p, err := NewPort(vcs, depth, f.ledger, &f.occ)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	f.in = mk(inDepth)
	f.out[0] = mk(outDepth)
	f.out[1] = mk(outDepth)
	route := func(fl packet.Flit) int {
		return int(fl.Packet.DstCluster) % 2
	}
	r, err := New("test", []*Port{f.in}, []int{2}, route, f.ledger)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddOutput(f.out[0], 1, true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddOutput(f.out[1], 1, false); err != nil {
		t.Fatal(err)
	}
	f.r = r
	return f
}

func (f *testFabric) inject(t *testing.T, pkt *packet.Packet, now sim.Cycle) int {
	t.Helper()
	vc, ok := f.in.AllocVC(pkt.ID)
	if !ok {
		t.Fatal("no free input VC")
	}
	for i := 0; i < pkt.Flits; i++ {
		if err := f.in.Enqueue(vc, packet.FlitAt(pkt, i), now); err != nil {
			t.Fatal(err)
		}
	}
	return vc
}

func (f *testFabric) run(t *testing.T, from, to sim.Cycle) {
	t.Helper()
	for now := from; now < to; now++ {
		if err := f.r.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRouterForwardsWholePacket(t *testing.T) {
	f := newTestFabric(t, 4, 16)
	pkt := &packet.Packet{ID: 1, Flits: 4, FlitBits: 32, DstCluster: 0}
	f.inject(t, pkt, 0)

	f.run(t, 0, 10)
	if got := f.out[0].BufferedFlits(); got != 4 {
		t.Fatalf("output 0 holds %d flits, want 4", got)
	}
	if got := f.out[1].BufferedFlits(); got != 0 {
		t.Fatalf("output 1 holds %d flits, want 0", got)
	}
	// FIFO order preserved through the hop.
	for i := 0; i < 4; i++ {
		fl, err := f.out[0].Pop(0)
		if err != nil {
			t.Fatal(err)
		}
		if fl.Seq != i {
			t.Fatalf("flit %d arrived out of order (seq %d)", i, fl.Seq)
		}
	}
}

// TestRouterPipelineDelay: a flit enqueued at cycle 0 cannot depart before
// it has spent PipelineDelay cycles in the input buffer (the IA and
// routing stages of the 3-stage router).
func TestRouterPipelineDelay(t *testing.T) {
	f := newTestFabric(t, 4, 16)
	pkt := &packet.Packet{ID: 1, Flits: 1, FlitBits: 32, DstCluster: 0}
	f.inject(t, pkt, 0)

	f.run(t, 0, PipelineDelay) // cycles 0 and 1
	if got := f.out[0].BufferedFlits(); got != 0 {
		t.Fatalf("flit departed after %d cycles, pipeline delay is %d", got, PipelineDelay)
	}
	f.run(t, PipelineDelay, PipelineDelay+1)
	if got := f.out[0].BufferedFlits(); got != 1 {
		t.Fatal("flit did not depart once eligible")
	}
}

// TestRouterOutputWidth: an output moves at most `width` flits per cycle.
func TestRouterOutputWidth(t *testing.T) {
	f := newTestFabric(t, 4, 16)
	pkt := &packet.Packet{ID: 1, Flits: 8, FlitBits: 32, DstCluster: 0}
	f.inject(t, pkt, 0)

	f.run(t, 0, 3) // first eligible cycle is 2
	if got := f.out[0].BufferedFlits(); got != 1 {
		t.Fatalf("moved %d flits in one cycle through width-1 output", got)
	}
}

// TestRouterInputWidthLimit: a width-2 input feeding two outputs still
// moves at most 2 flits per cycle in total.
func TestRouterInputWidthLimit(t *testing.T) {
	f := newTestFabric(t, 4, 16)
	even := &packet.Packet{ID: 1, Flits: 4, FlitBits: 32, DstCluster: 0}
	odd := &packet.Packet{ID: 2, Flits: 4, FlitBits: 32, DstCluster: 1}
	f.inject(t, even, 0)
	f.inject(t, odd, 0)

	f.run(t, 0, 3)
	total := f.out[0].BufferedFlits() + f.out[1].BufferedFlits()
	if total != 2 {
		t.Fatalf("moved %d flits in one cycle through a width-2 input", total)
	}
}

// TestWormholeNoInterleaving: two packets to the same output land in
// different downstream VCs, each contiguous.
func TestWormholeNoInterleaving(t *testing.T) {
	f := newTestFabric(t, 4, 16)
	a := &packet.Packet{ID: 1, Flits: 4, FlitBits: 32, DstCluster: 0}
	b := &packet.Packet{ID: 2, Flits: 4, FlitBits: 32, DstCluster: 2} // also output 0
	f.inject(t, a, 0)
	f.inject(t, b, 0)

	f.run(t, 0, 20)
	if got := f.out[0].BufferedFlits(); got != 8 {
		t.Fatalf("output holds %d flits, want 8", got)
	}
	// Each downstream VC must contain exactly one packet's flits in order.
	for vc := 0; vc < f.out[0].VCCount(); vc++ {
		var owner packet.ID
		seq := 0
		for f.out[0].Len(vc) > 0 {
			fl, err := f.out[0].Pop(vc)
			if err != nil {
				t.Fatal(err)
			}
			if owner == 0 {
				owner = fl.Packet.ID
			}
			if fl.Packet.ID != owner {
				t.Fatalf("VC %d interleaves packets %d and %d", vc, owner, fl.Packet.ID)
			}
			if fl.Seq != seq {
				t.Fatalf("VC %d out of order", vc)
			}
			seq++
		}
	}
}

// TestRouterBackpressure: when the downstream VC fills, the router stops
// forwarding and resumes as space frees.
func TestRouterBackpressure(t *testing.T) {
	f := newTestFabricDepths(t, 1, 16, 2) // tiny downstream buffers
	pkt := &packet.Packet{ID: 1, Flits: 6, FlitBits: 32, DstCluster: 0}
	f.inject(t, pkt, 0)

	f.run(t, 0, 10)
	if got := f.out[0].BufferedFlits(); got != 2 {
		t.Fatalf("downstream holds %d flits, want 2 (buffer depth)", got)
	}
	// Drain one: exactly one more moves.
	if _, err := f.out[0].Pop(0); err != nil {
		t.Fatal(err)
	}
	f.run(t, 10, 11)
	if got := f.out[0].BufferedFlits(); got != 2 {
		t.Fatalf("downstream holds %d flits after drain+tick, want 2", got)
	}
}

// blockedRig is one router with a 4-VC input feeding a single width-1
// output whose downstream port has only 2 VCs, so two packets in flight
// exhaust it and every further header must wait.
type blockedRig struct {
	r       *Router
	in, out *Port
	occ     int64
}

func newBlockedRig(t *testing.T) *blockedRig {
	t.Helper()
	g := &blockedRig{}
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	arena, err := NewArena(ledger, &g.occ)
	if err != nil {
		t.Fatal(err)
	}
	if g.in, err = arena.NewPort(4, 16); err != nil {
		t.Fatal(err)
	}
	if g.out, err = arena.NewPort(2, 16); err != nil {
		t.Fatal(err)
	}
	if g.r, err = New("blocked", []*Port{g.in}, []int{2}, func(packet.Flit) int { return 0 }, ledger); err != nil {
		t.Fatal(err)
	}
	if _, err := g.r.AddOutput(g.out, 1, true); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRouterVCExhaustionBlocksHeader: with every downstream VC owned, a
// new header waits rather than forwarding, a stream already routed through
// the same output keeps flowing, and the header is granted on the first
// Tick after a tail pop frees a downstream VC. The router must do the
// waiting for free: no visit of the blocked header, and quiescent until
// something can change the answer.
func TestRouterVCExhaustionBlocksHeader(t *testing.T) {
	g := newBlockedRig(t)
	tick := func(from, to sim.Cycle) {
		t.Helper()
		for now := from; now < to; now++ {
			if err := g.r.Tick(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	enqueue := func(vc int, pkt *packet.Packet, from, to int, now sim.Cycle) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := g.in.Enqueue(vc, packet.FlitAt(pkt, i), now); err != nil {
				t.Fatal(err)
			}
		}
	}
	alloc := func(pkt *packet.Packet) int {
		t.Helper()
		vc, ok := g.in.AllocVC(pkt.ID)
		if !ok {
			t.Fatal("no free input VC")
		}
		return vc
	}
	// blockedForFree asserts that the last Tick visited nothing: the router
	// went quiet with no age-in wake-up recorded, which a visit of a
	// still-young header would have set.
	blockedForFree := func(when string) {
		t.Helper()
		if !(g.r.quiet && g.r.wakeAt == quietForever) {
			t.Fatalf("%s: router with only blocked headers is not quiescent (quiet=%v wakeAt=%d)", when, g.r.quiet, g.r.wakeAt)
		}
	}

	// A short packet and the head of a long stream claim both downstream
	// VCs; nothing is drained.
	short := &packet.Packet{ID: 1, Flits: 3, FlitBits: 32}
	stream := &packet.Packet{ID: 2, Flits: 10, FlitBits: 32}
	enqueue(alloc(short), short, 0, 3, 0)
	streamVC := alloc(stream)
	enqueue(streamVC, stream, 0, 3, 0)
	tick(0, 10)
	if got := g.out.BufferedFlits(); got != 6 || g.out.FreeVCs() != 0 {
		t.Fatalf("downstream holds %d flits with %d free VCs, want 6 and 0", got, g.out.FreeVCs())
	}

	// A third packet arrives: its header cannot allocate.
	waiter := &packet.Packet{ID: 3, Flits: 2, FlitBits: 32}
	waiterVC := alloc(waiter)
	enqueue(waiterVC, waiter, 0, 2, 10)
	tick(10, 11)
	blockedForFree("young blocked header")
	tick(11, 15)
	blockedForFree("aged blocked header")
	if got := g.out.BufferedFlits(); got != 6 {
		t.Fatalf("downstream holds %d flits, want only the first two packets' 6", got)
	}

	// The routed stream still flows through the exhausted output, one flit
	// per cycle once aged, while the header keeps waiting.
	enqueue(streamVC, stream, 3, 5, 15)
	tick(15, 17)
	if got := g.out.BufferedFlits(); got != 6 {
		t.Fatalf("stream flit forwarded before its pipeline delay (%d downstream)", got)
	}
	tick(17, 18)
	if got := g.out.BufferedFlits(); got != 7 {
		t.Fatalf("routed stream stalled behind a blocked header (%d downstream, want 7)", got)
	}
	tick(18, 20)
	blockedForFree("after the stream ran dry")
	if got, w := g.out.BufferedFlits(), g.in.Len(waiterVC); got != 8 || w != 2 {
		t.Fatalf("downstream holds %d flits and the waiter %d, want 8 and 2", got, w)
	}

	// Drain the short packet; its tail frees VC 0 and the very next Tick
	// grants the waiting header.
	for i := 0; i < 3; i++ {
		if _, err := g.out.Pop(0); err != nil {
			t.Fatal(err)
		}
	}
	tick(20, 21)
	if g.out.Owner(0) != waiter.ID || g.out.Len(0) != 1 {
		t.Fatalf("header not granted on the Tick after the tail pop (owner %d, %d flits)", g.out.Owner(0), g.out.Len(0))
	}
}

// TestRouteOutOfRangeIsAnError: a routing function that answers outside
// the attached outputs fails the header's Enqueue, naming the router, and
// buffers nothing; the same goes for traffic buffered before the outputs
// are attached.
func TestRouteOutOfRangeIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		route   int
		outputs int
		want    string
	}{
		{"past the last output", 2, 2, "router bad: route 2 outside 2 outputs"},
		{"negative", -1, 2, "router bad: route -1 outside 2 outputs"},
		{"before any output is attached", 0, 0, "router bad: route 0 outside 0 outputs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
			var occ int64
			arena, err := NewArena(ledger, &occ)
			if err != nil {
				t.Fatal(err)
			}
			in, err := arena.NewPort(2, 4)
			if err != nil {
				t.Fatal(err)
			}
			r, err := New("bad", []*Port{in}, []int{1}, func(packet.Flit) int { return tc.route }, ledger)
			if err != nil {
				t.Fatal(err)
			}
			for o := 0; o < tc.outputs; o++ {
				out, err := arena.NewPort(2, 4)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.AddOutput(out, 1, false); err != nil {
					t.Fatal(err)
				}
			}
			pkt := &packet.Packet{ID: 1, Flits: 2, FlitBits: 32}
			vc, ok := in.AllocVC(pkt.ID)
			if !ok {
				t.Fatal("no free input VC")
			}
			err = in.Enqueue(vc, packet.FlitAt(pkt, 0), 0)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Enqueue error = %v, want %q", err, tc.want)
			}
			if in.BufferedFlits() != 0 || occ != 0 || r.BlockedHeaders() != 0 {
				t.Fatalf("refused header left state behind: %d buffered, occupancy %d", in.BufferedFlits(), occ)
			}
			for now := sim.Cycle(0); now < 4; now++ {
				if err := r.Tick(now); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRouterRoundRobinFairness: two input VCs contending for one output
// share it roughly evenly.
func TestRouterRoundRobinFairness(t *testing.T) {
	f := newTestFabric(t, 4, 64)
	a := &packet.Packet{ID: 1, Flits: 30, FlitBits: 32, DstCluster: 0}
	b := &packet.Packet{ID: 2, Flits: 30, FlitBits: 32, DstCluster: 2}
	f.inject(t, a, 0)
	f.inject(t, b, 0)

	// Run just long enough to move ~20 flits through the width-1 output
	// (input width 2 allows both VCs to progress each cycle).
	f.run(t, 0, 22)
	got := f.out[0].BufferedFlits()
	if got == 0 {
		t.Fatal("nothing forwarded")
	}
	// Count per-packet arrivals.
	counts := make(map[packet.ID]int)
	for vc := 0; vc < f.out[0].VCCount(); vc++ {
		for f.out[0].Len(vc) > 0 {
			fl, err := f.out[0].Pop(vc)
			if err != nil {
				t.Fatal(err)
			}
			counts[fl.Packet.ID]++
		}
	}
	diff := counts[1] - counts[2]
	if diff < -2 || diff > 2 {
		t.Fatalf("unfair arbitration: packet 1 got %d grants, packet 2 got %d", counts[1], counts[2])
	}
}

func TestRouterEnergyAccounting(t *testing.T) {
	f := newTestFabric(t, 4, 16)
	pkt := &packet.Packet{ID: 1, Flits: 1, FlitBits: 32, DstCluster: 0}
	f.inject(t, pkt, 0)
	f.run(t, 0, 5)

	// One traversal of 32 bits.
	counts := f.ledger.Counts()
	if got, want := counts[photonic.EnergyRouter], int64(32); got != want {
		t.Fatalf("router traversal = %d bits, want %d", got, want)
	}
	// Output 0 charges the wire link (chargeLink=true).
	if got, want := counts[photonic.EnergyWireLink], int64(32); got != want {
		t.Fatalf("wire link = %d bits, want %d", got, want)
	}
}

func TestNewRouterValidation(t *testing.T) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	p, err := NewPort(1, 1, ledger, &occ)
	if err != nil {
		t.Fatal(err)
	}
	route := func(packet.Flit) int { return 0 }
	if _, err := New("x", nil, nil, route, ledger); err == nil {
		t.Error("router with no inputs accepted")
	}
	if _, err := New("x", []*Port{p}, []int{1, 2}, route, ledger); err == nil {
		t.Error("mismatched widths accepted")
	}
	if _, err := New("x", []*Port{p}, []int{0}, route, ledger); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New("x", []*Port{p}, []int{1}, nil, ledger); err == nil {
		t.Error("nil route accepted")
	}
	r, err := New("x", []*Port{p}, []int{1}, route, ledger)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddOutput(nil, 1, false); err == nil {
		t.Error("nil output accepted")
	}
	if _, err := r.AddOutput(p, 0, false); err == nil {
		t.Error("zero-width output accepted")
	}
}
