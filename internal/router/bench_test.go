package router

import (
	"runtime"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
)

// BenchmarkRouterTickIdle measures the cost of arbitration over an empty
// router — the dominant case in a lightly loaded fabric.
func BenchmarkRouterTickIdle(b *testing.B) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	arena, err := NewArena(ledger, &occ)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]*Port, 5)
	widths := make([]int, 5)
	for i := range inputs {
		p, err := arena.NewPort(16, 64)
		if err != nil {
			b.Fatal(err)
		}
		inputs[i] = p
		widths[i] = 2
	}
	r, err := New("bench", inputs, widths, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		b.Fatal(err)
	}
	out, err := arena.NewPort(16, 64)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Tick(sim.Cycle(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterTickStreaming measures a router continuously forwarding
// a saturated flow.
func BenchmarkRouterTickStreaming(b *testing.B) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	in, err := NewPort(16, 64, ledger, &occ)
	if err != nil {
		b.Fatal(err)
	}
	r, err := New("bench", []*Port{in}, []int{2}, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		b.Fatal(err)
	}
	out, err := NewPort(16, 64, ledger, &occ)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		b.Fatal(err)
	}

	vc, ok := in.AllocVC(streamID)
	if !ok {
		b.Fatal("no VC")
	}
	pumpStream(b, r, in, vc, out, 0)
}

// streamID is the packet ID of the streaming benchmarks' endless packet.
const streamID packet.ID = 1 << 20

// pumpStream is the timed loop of the streaming benchmarks: the endless
// packet streamID is kept primed in input VC vc, which the caller claimed
// for it; r ticks once per iteration, and downstream VC outVC — the one
// the stream's header will be granted — is kept drained.
func pumpStream(b *testing.B, r *Router, in *Port, vc int, out *Port, outVC int) {
	pkt := &packet.Packet{ID: streamID, Flits: 1 << 30, FlitBits: 32}
	seq := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep the input primed and the output drained. The sequence
		// number wraps: real packets are at most MaxFlits long, so the
		// buffer entries pack Seq into a few bits, while this synthetic
		// flow streams one endless packet.
		for in.Space(vc) > 0 && seq < pkt.Flits-1 {
			fl := packet.Flit{Packet: pkt, Type: packet.Body, Seq: seq % 4096}
			if seq == 0 {
				fl.Type = packet.Header
			}
			if err := in.Enqueue(vc, fl, sim.Cycle(i)); err != nil {
				b.Fatal(err)
			}
			seq++
		}
		if err := r.Tick(sim.Cycle(i)); err != nil {
			b.Fatal(err)
		}
		for out.BufferedFlits() > 32 {
			if _, err := out.Pop(outVC); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRouterTickBlocked measures the congested case: a 5-input
// router whose single output feeds a port with every VC owned.
// One routed stream keeps flowing through it while the other 79 input VCs
// each hold a header waiting for a downstream VC that never frees, so the
// number reported is what a Tick pays for waiters on top of one grant.
func BenchmarkRouterTickBlocked(b *testing.B) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	arena, err := NewArena(ledger, &occ)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]*Port, 5)
	widths := make([]int, 5)
	for i := range inputs {
		if inputs[i], err = arena.NewPort(16, 64); err != nil {
			b.Fatal(err)
		}
		widths[i] = 2
	}
	r, err := New("bench", inputs, widths, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		b.Fatal(err)
	}
	out, err := arena.NewPort(16, 64)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		b.Fatal(err)
	}
	// Strangers own all but the last downstream VC; the stream's header
	// takes that one on the first eligible Tick.
	id := packet.ID(1)
	for v := 0; v < out.VCCount()-1; v++ {
		if _, ok := out.AllocVC(id); !ok {
			b.Fatal("no downstream VC")
		}
		id++
	}
	// The stream claims the first input VC — first in round-robin order, so
	// its header wins the free downstream VC — and every other input VC
	// holds a waiting header.
	streamVC, ok := inputs[0].AllocVC(streamID)
	if !ok {
		b.Fatal("no VC")
	}
	for _, in := range inputs {
		for in.FreeVCs() > 0 {
			pkt := &packet.Packet{ID: id, Flits: 4, FlitBits: 32}
			id++
			vc, _ := in.AllocVC(pkt.ID)
			if err := in.Enqueue(vc, packet.FlitAt(pkt, 0), 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	pumpStream(b, r, inputs[0], streamVC, out, out.VCCount()-1)
}

// TestTickAllocatesNothing: a Tick allocates nothing, when it forwards
// a stream into a downstream VC that fills up and stays full, and when
// every input VC holds a header waiting for a downstream VC that never
// frees.
func TestTickAllocatesNothing(t *testing.T) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	arena, err := NewArena(ledger, &occ)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*Port, 3)
	widths := make([]int, 3)
	for i := range inputs {
		if inputs[i], err = arena.NewPort(4, 8); err != nil {
			t.Fatal(err)
		}
		widths[i] = 2
	}
	r, err := New("alloc", inputs, widths, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		t.Fatal(err)
	}
	out, err := arena.NewPort(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		t.Fatal(err)
	}
	// Every input VC holds the first 8 flits of a 16-flit packet: two
	// win the downstream VCs and stream until those are full, with flits
	// left behind; the rest wait for a VC that never frees.
	id := packet.ID(1)
	for _, in := range inputs {
		for in.FreeVCs() > 0 {
			pkt := &packet.Packet{ID: id, Flits: 16, FlitBits: 32}
			id++
			vc, _ := in.AllocVC(pkt.ID)
			for seq := 0; in.Space(vc) > 0; seq++ {
				if err := in.Enqueue(vc, packet.FlitAt(pkt, seq), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Counted from the first Tick: once blocked, the router goes quiet
	// and skips the Ticks that would grant nothing.
	var tickErr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for now := range sim.Cycle(20) {
		if err := r.Tick(now); err != nil {
			tickErr = err
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 || tickErr != nil {
		t.Fatalf("a blocked router's Ticks made %d allocations (error %v), want 0", n, tickErr)
	}
	if out.Space(0) != 0 || out.Space(1) != 0 {
		t.Fatal("the downstream VCs never filled")
	}
}
