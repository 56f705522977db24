package router

import (
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
)

func newTestPort(t *testing.T, vcs, depth int) (*Port, *photonic.Ledger, *int64) {
	t.Helper()
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	ledger.StartMeasurement()
	var occupancy int64
	p, err := NewPort(vcs, depth, ledger, &occupancy)
	if err != nil {
		t.Fatal(err)
	}
	return p, ledger, &occupancy
}

// head peeks at the head flit of VC i (what Pop would return); ok is
// false when the VC is empty. No engine peeks — they ask HeadReady and
// pop — so only the tests' reference models need it.
func (p *Port) head(i int) (packet.Flit, bool) {
	h := &p.a.hot[p.a.vcBase[p.id]+int32(i)]
	if h.count == 0 {
		return packet.Flit{}, false
	}
	return packet.FlitAt(h.pkt, int(h.headSeq)), true
}

func testPacket(id packet.ID, flits int) *packet.Packet {
	return &packet.Packet{ID: id, Flits: flits, FlitBits: 32}
}

func TestPortAllocLifecycle(t *testing.T) {
	p, _, occ := newTestPort(t, 2, 4)
	pkt := testPacket(1, 3)

	vc, ok := p.AllocVC(pkt.ID)
	if !ok {
		t.Fatal("AllocVC failed on empty port")
	}
	if p.FreeVCs() != 1 {
		t.Fatalf("FreeVCs = %d, want 1", p.FreeVCs())
	}

	for i := 0; i < pkt.Flits; i++ {
		if err := p.Enqueue(vc, packet.FlitAt(pkt, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if *occ != 3 {
		t.Fatalf("occupancy = %d, want 3", *occ)
	}
	if p.BufferedFlits() != 3 {
		t.Fatalf("BufferedFlits = %d, want 3", p.BufferedFlits())
	}

	// Pop everything; the tail releases the VC.
	for i := 0; i < pkt.Flits; i++ {
		fl, err := p.Pop(vc)
		if err != nil {
			t.Fatal(err)
		}
		if fl.Seq != i {
			t.Fatalf("popped flit %d, want %d (FIFO order)", fl.Seq, i)
		}
	}
	if *occ != 0 {
		t.Fatalf("occupancy = %d after drain, want 0", *occ)
	}
	if p.FreeVCs() != 2 {
		t.Fatalf("FreeVCs = %d after tail, want 2", p.FreeVCs())
	}
}

func TestPortAllocExhaustion(t *testing.T) {
	p, _, _ := newTestPort(t, 2, 4)
	if _, ok := p.AllocVC(1); !ok {
		t.Fatal("first alloc failed")
	}
	if _, ok := p.AllocVC(2); !ok {
		t.Fatal("second alloc failed")
	}
	// All VCs busy: the §1.4 drop condition.
	if _, ok := p.AllocVC(3); ok {
		t.Fatal("alloc succeeded with every VC busy")
	}
}

func TestPortEnqueueErrors(t *testing.T) {
	p, _, _ := newTestPort(t, 1, 2)
	pkt := testPacket(7, 4)
	vc, _ := p.AllocVC(pkt.ID)

	// Wrong owner.
	other := testPacket(8, 1)
	if err := p.Enqueue(vc, packet.FlitAt(other, 0), 0); err == nil {
		t.Fatal("enqueue of foreign packet accepted")
	}

	// Overflow.
	if err := p.Enqueue(vc, packet.FlitAt(pkt, 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Enqueue(vc, packet.FlitAt(pkt, 1), 0); err != nil {
		t.Fatal(err)
	}
	if p.Space(vc) != 0 {
		t.Fatalf("Space = %d, want 0", p.Space(vc))
	}
	if err := p.Enqueue(vc, packet.FlitAt(pkt, 2), 0); err == nil {
		t.Fatal("enqueue into full VC accepted")
	}
}

func TestPortPopEmpty(t *testing.T) {
	p, _, _ := newTestPort(t, 1, 2)
	if _, err := p.Pop(0); err == nil {
		t.Fatal("pop from empty VC accepted")
	}
	if _, ok := p.head(0); ok {
		t.Fatal("head reported a flit on an empty VC")
	}
}

func TestPortBufferEnergyCharged(t *testing.T) {
	p, ledger, _ := newTestPort(t, 1, 8)
	pkt := testPacket(10, 2)
	vc, _ := p.AllocVC(pkt.ID)
	if err := p.Enqueue(vc, packet.FlitAt(pkt, 0), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pop(vc); err != nil {
		t.Fatal(err)
	}
	// One write + one read of a 32-bit flit.
	if got, want := ledger.Counts()[photonic.EnergyBuffer], int64(2*32); got != want {
		t.Fatalf("buffer accesses = %d bits, want %d", got, want)
	}
}

func TestNewPortValidation(t *testing.T) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	if _, err := NewPort(0, 4, ledger, &occ); err == nil {
		t.Error("zero VCs accepted")
	}
	if _, err := NewPort(4, 0, ledger, &occ); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := NewPort(4, 4, nil, &occ); err == nil {
		t.Error("nil ledger accepted")
	}
	if _, err := NewPort(4, 4, ledger, nil); err == nil {
		t.Error("nil occupancy accepted")
	}
}
