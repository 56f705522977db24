// Package router implements the electrical switches of the NoC: 3-stage
// wormhole routers (input arbitration, routing/crossbar traversal, output
// arbitration — the micro-architecture of [24] adopted in §3.3.2) with
// virtual channels, credit-based flow control and round-robin arbitration.
// Table 3-3 configures them with 16 VCs per port and a 64-flit buffer per
// VC.
//
// All port and VC state lives in a struct-of-arrays Arena; Port is an
// index view over it. The per-cycle kernels (Router.Tick, the
// fabric's inject/eject pumps, the photonic engines) therefore touch
// flat scalar slices and per-port bitmasks instead of per-object heaps.
package router

import (
	"fmt"
	"math/bits"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
)

// Port is an input port: a bank of VCs carved out of an Arena. It is the
// unit of connection in the fabric — router outputs, the photonic
// transmit engine and the core ejection path all receive flits through a
// Port.
type Port struct {
	a  *Arena
	id int32
}

// NewPort builds a standalone port backed by its own single-port arena.
// The fabric carves all its ports from one shared arena instead; this
// constructor serves tests and other small rigs. ledger and occupancy
// may be shared; occupancy must be non-nil.
func NewPort(vcCount, depth int, ledger *photonic.Ledger, occupancy *int64) (*Port, error) {
	a, err := NewArena(ledger, occupancy)
	if err != nil {
		return nil, err
	}
	return a.NewPort(vcCount, depth)
}

// WakeIn makes every empty-to-non-empty transition of the port set bit in
// set. The fabric points it at its activity tracking so components with
// freshly arrived work re-enter the per-cycle schedule.
func (p *Port) WakeIn(set *sim.Bitset, bit int) { p.a.wake[p.id] = wakeBit{set: set, bit: int32(bit)} }

// VCCount returns the number of virtual channels.
func (p *Port) VCCount() int {
	vcCnt := p.a.vcCnt
	id := int(p.id)
	if uint(id) >= uint(len(vcCnt)) {
		return 0 // unreachable: ids are assigned by Reserve; the guard anchors BCE
	}
	return int(vcCnt[id])
}

// Len returns the number of flits buffered in VC i.
func (p *Port) Len(i int) int { return int(p.a.hot[p.a.vcBase[p.id]+int32(i)].count) }

// AllocVC claims a free, empty VC for a new packet and returns its index.
// It reports false when every VC is busy — the §1.4 condition under which
// a header flit is dropped. The free set is a bitmask, so the scan is a
// single trailing-zeros instruction.
func (p *Port) AllocVC(owner packet.ID) (int, bool) {
	a := p.a
	id := int(p.id)
	if uint(id) >= uint(len(a.freeMask)) || uint(id) >= uint(len(a.vcBase)) {
		return 0, false // unreachable: ids are assigned by Reserve; the guard anchors BCE
	}
	m := a.freeMask[id]
	if m == 0 {
		return 0, false
	}
	i := bits.TrailingZeros64(m)
	g := int(a.vcBase[id]) + i
	if uint(g) >= uint(len(a.owner)) {
		return 0, false // unreachable: vcBase+i stays inside the arena's VC range
	}
	a.freeMask[id] = m & (m - 1)
	a.owner[g] = owner
	return i, true
}

// OccupiedMask returns the port's VC occupancy bitmask: bit i is set
// while VC i holds at least one flit. Engines draining a port use it to
// jump over empty VCs instead of probing each one.
func (p *Port) OccupiedMask() uint64 { return p.a.occMask[p.id] }

// Owner returns the ID of the packet occupying VC i, or zero when the VC
// is free. Every buffered flit of a VC belongs to its owner.
func (p *Port) Owner(i int) packet.ID {
	return p.a.owner[p.a.vcBase[p.id]+int32(i)]
}

// FreeVCs returns how many VCs are currently unclaimed.
func (p *Port) FreeVCs() int {
	return bits.OnesCount64(p.a.freeMask[p.id])
}

// Space returns the free buffer slots of VC i.
func (p *Port) Space(i int) int {
	a := p.a
	id := int(p.id)
	if uint(id) >= uint(len(a.depth)) || uint(id) >= uint(len(a.vcBase)) {
		return 0 // unreachable: ids are assigned by Reserve; the guard anchors BCE
	}
	g := int(a.vcBase[id]) + i
	if uint(g) >= uint(len(a.hot)) {
		return 0 // unreachable: vcBase+i stays inside the arena's VC range
	}
	return int(a.depth[id]) - int(a.hot[g].count)
}

// Enqueue buffers a flit into VC i at cycle now, charging the buffer-write
// energy. A header buffered into a router's input also fixes the packet's
// output: the router's RouteFunc is asked here, once, and the VC contends
// at that output until the packet's tail is popped. It reports an error
// when the VC is full, not owned by the flit's packet, or routed outside
// the router's outputs — all fabric bugs, not runtime conditions.
//
// Only a flit entering an empty VC is looked at beyond its packet and
// header bit: the flits behind it are taken to be the packet's next ones,
// in order (a VC holds consecutive flits of one packet), and now must not
// run backwards.
func (p *Port) Enqueue(i int, f packet.Flit, now sim.Cycle) error {
	a := p.a
	g := a.vcBase[p.id] + int32(i)
	h := &a.hot[g]
	if int32(h.count) >= a.depth[p.id] {
		return fmt.Errorf("router: enqueue into full VC %d (%s)", i, f)
	}
	if a.owner[g] != f.Packet.ID {
		return fmt.Errorf("router: VC %d owned by packet %d, got flit of packet %d", i, a.owner[g], f.Packet.ID)
	}
	isHdr := f.Type.IsHeader()
	cons := a.consumer[p.id]
	if isHdr && cons != nil {
		d := cons.route(f)
		if uint(d) >= uint(len(cons.outputs)) {
			return fmt.Errorf("router %s: route %d outside %d outputs", cons.name, d, len(cons.outputs))
		}
		h.dstOut = int16(d)
		cons.addContender(d, int(a.consBase[p.id])+i)
	}
	if h.count == 0 {
		a.occMask[p.id] |= 1 << uint(i)
		a.fbits[g] = int32(f.Packet.FlitBits)
		h.pkt = f.Packet
		h.headSeq = int32(f.Seq)
	}
	switch now - h.lastEnq {
	case 0:
		h.young0++
	case 1:
		h.young1, h.young0 = h.young0, 1
	default:
		h.young1, h.young0 = 0, 1
	}
	h.lastEnq = now
	h.count++
	// A fresh flit can flip the consuming router's arbitration outcome,
	// so end its quiescent period (see Router.Tick).
	if cons != nil {
		cons.quiet = false
	}
	*a.occupancy++
	a.buffered[p.id]++
	if a.buffered[p.id] == 1 {
		if w := a.wake[p.id]; w.set != nil {
			w.set.Set(int(w.bit))
		}
	}
	a.ledger.Add(photonic.EnergyBuffer, int64(f.Bits()))
	return nil
}

// HeadReady is the age test of the 3-stage pipeline, in one place: ok
// reports whether VC i holds a head flit that has been buffered for
// PipelineDelay cycles at cycle now, and is therefore eligible to leave.
// pkt is the packet occupying the VC and isHeader whether the head flit
// opens it; both are zero when ok is false. Everything comes from the
// per-VC descriptor, so an eligibility scan stays on one cache line.
func (p *Port) HeadReady(i int, now sim.Cycle) (pkt *packet.Packet, isHeader, ok bool) {
	a := p.a
	id := int(p.id)
	if uint(id) >= uint(len(a.vcBase)) {
		return nil, false, false // unreachable: ids are assigned by Reserve; the guard anchors BCE
	}
	g := int(a.vcBase[id]) + i
	if uint(g) >= uint(len(a.hot)) {
		return nil, false, false // unreachable: vcBase+i stays inside the arena's VC range
	}
	h := &a.hot[g]
	if h.count == 0 || now < h.readyAt() {
		return nil, false, false
	}
	return h.pkt, h.headSeq == 0, true
}

// Pop dequeues the head flit of VC i, charging the buffer-read energy and
// releasing the VC when the tail departs.
func (p *Port) Pop(i int) (packet.Flit, error) {
	a := p.a
	g := a.vcBase[p.id] + int32(i)
	h := &a.hot[g]
	if h.count == 0 {
		return packet.Flit{}, fmt.Errorf("router: pop from empty VC %d", i)
	}
	f := packet.FlitAt(h.pkt, int(h.headSeq))
	h.headSeq++
	h.count--
	// Flits leave from the old end, so the young groups only shrink when
	// a young head is popped (tests and probes do; no engine does).
	h.young0 = min(h.young0, h.count)
	h.young1 = min(h.young1, h.count-h.young0)
	*a.occupancy--
	a.buffered[p.id]--
	// The cached per-VC flit size avoids dereferencing the packet just to
	// charge the read energy.
	a.ledger.Add(photonic.EnergyBuffer, int64(a.fbits[g]))
	if h.count == 0 {
		a.occMask[p.id] &^= 1 << uint(i)
	}
	if f.Type.IsTail() {
		// A VC holds one packet, so a popped tail always empties it.
		if d := h.dstOut; d >= 0 { // set only on a router's input
			a.consumer[p.id].dropContender(int(d), int(a.consBase[p.id])+i)
		}
		a.owner[g] = 0
		h.pkt = nil
		h.routed = false
		h.dstOut = -1
		a.freeMask[p.id] |= 1 << uint(i)
	}
	// Draining this port frees buffer space (and, on tails, a VC), which
	// can unblock any router feeding it: end their quiescent periods.
	for _, w := range a.watchers[p.id] {
		w.quiet = false
	}
	return f, nil
}

// BufferedFlits returns the total flits buffered across all VCs.
func (p *Port) BufferedFlits() int {
	buffered := p.a.buffered
	id := int(p.id)
	if uint(id) >= uint(len(buffered)) {
		return 0 // unreachable: ids are assigned by Reserve; the guard anchors BCE
	}
	return int(buffered[id])
}
