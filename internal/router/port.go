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

// entry is one buffered flit with its arrival cycle, packed into 16
// bytes so ring traffic moves half the memory of the naive layout: the
// packet pointer plus a word holding the enqueue cycle (low 48 bits, 281T
// cycles), the flit sequence number (13 bits) and the flit type (3 bits).
type entry struct {
	pkt  *packet.Packet
	meta uint64
}

const (
	entryEnqBits = 48
	entryEnqMask = 1<<entryEnqBits - 1
	entrySeqBits = 13
	maxFlitSeq   = 1 << entrySeqBits
)

func mkEntry(f packet.Flit, now sim.Cycle) entry {
	return entry{pkt: f.Packet, meta: uint64(now)&entryEnqMask |
		uint64(f.Seq)<<entryEnqBits | uint64(f.Type)<<(entryEnqBits+entrySeqBits)}
}

func (e entry) flit() packet.Flit {
	return packet.Flit{
		Packet: e.pkt,
		Type:   packet.FlitType(e.meta >> (entryEnqBits + entrySeqBits)),
		Seq:    int(e.meta >> entryEnqBits & (maxFlitSeq - 1)),
	}
}

func (e entry) enqueued() sim.Cycle { return sim.Cycle(e.meta & entryEnqMask) }

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
//
//hetpnoc:hotpath
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
// is free. Every buffered flit of a VC belongs to its owner, so engines
// can identify the head packet without reading the ring.
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
//hetpnoc:hotpath
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
	if f.Seq >= maxFlitSeq {
		return fmt.Errorf("router: flit sequence %d exceeds packed-entry capacity %d", f.Seq, maxFlitSeq)
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
		h.headEnq = now
		if isHdr {
			h.flags |= vcHeadHdr
		} else {
			h.flags &^= vcHeadHdr
		}
	}
	// A fresh flit can flip the consuming router's arbitration outcome,
	// so end its quiescent period (see Router.Tick).
	if cons != nil {
		cons.quiet = false
	}
	a.push(g, mkEntry(f, now))
	*a.occupancy++
	a.buffered[p.id]++
	if a.buffered[p.id] == 1 {
		if w := a.wake[p.id]; w.set != nil {
			w.set.Set(int(w.bit))
		}
	}
	a.ledger.AddBufferAccess(float64(f.Bits()))
	return nil
}

// Head returns the head flit of VC i and its enqueue cycle; ok is false
// when the VC is empty.
//
//hetpnoc:hotpath
func (p *Port) Head(i int) (packet.Flit, sim.Cycle, bool) {
	a := p.a
	id := int(p.id)
	if uint(id) >= uint(len(a.vcBase)) {
		return packet.Flit{}, 0, false // unreachable: ids are assigned by Reserve; the guard anchors BCE
	}
	g := int(a.vcBase[id]) + i
	if uint(g) >= uint(len(a.hot)) || uint(g) >= uint(len(a.bufs)) || uint(g) >= uint(len(a.head)) {
		return packet.Flit{}, 0, false // unreachable: vcBase+i stays inside the arena's VC range
	}
	if a.hot[g].count == 0 {
		return packet.Flit{}, 0, false
	}
	buf := a.bufs[g]
	hd := int(a.head[g])
	if uint(hd) >= uint(len(buf)) {
		return packet.Flit{}, 0, false // unreachable: head always points inside the ring
	}
	e := buf[hd]
	return e.flit(), e.enqueued(), true
}

// HeadMeta reports the head flit's enqueue cycle and whether it is a
// header, without touching the ring storage: everything comes from the
// packed per-VC descriptor, so eligibility scans stay on one cache line.
// ok is false when the VC is empty.
//
//hetpnoc:hotpath
func (p *Port) HeadMeta(i int) (enq sim.Cycle, isHeader, ok bool) {
	a := p.a
	id := int(p.id)
	if uint(id) >= uint(len(a.vcBase)) {
		return 0, false, false // unreachable: ids are assigned by Reserve; the guard anchors BCE
	}
	g := int(a.vcBase[id]) + i
	if uint(g) >= uint(len(a.hot)) {
		return 0, false, false // unreachable: vcBase+i stays inside the arena's VC range
	}
	h := &a.hot[g]
	if h.count == 0 {
		return 0, false, false
	}
	return h.headEnq, h.flags&vcHeadHdr != 0, true
}

// Pop dequeues the head flit of VC i, charging the buffer-read energy and
// releasing the VC when the tail departs.
//
//hetpnoc:hotpath
func (p *Port) Pop(i int) (packet.Flit, error) {
	a := p.a
	g := a.vcBase[p.id] + int32(i)
	h := &a.hot[g]
	if h.count == 0 {
		return packet.Flit{}, fmt.Errorf("router: pop from empty VC %d", i)
	}
	buf := a.bufs[g]
	hd := a.head[g]
	// The departed slot is left in place rather than cleared: packets are
	// pool-owned, so a stale ring reference only delays recycling by one
	// ring lap and saves a store (plus its write barrier) per pop.
	f := buf[hd].flit()
	hd++
	if int(hd) == len(buf) {
		hd = 0
	}
	a.head[g] = hd
	h.count--
	*a.occupancy--
	a.buffered[p.id]--
	// The cached per-VC flit size avoids dereferencing the packet just to
	// charge the read energy.
	a.ledger.AddBufferAccess(float64(a.fbits[g]))
	if h.count == 0 {
		a.occMask[p.id] &^= 1 << uint(i)
		h.headEnq = 0
		h.flags &^= vcHeadHdr
	} else {
		e := buf[hd]
		h.headEnq = e.enqueued()
		if e.flit().Type.IsHeader() {
			h.flags |= vcHeadHdr
		} else {
			h.flags &^= vcHeadHdr
		}
	}
	if f.Type.IsTail() {
		if d := h.dstOut; d >= 0 { // set only on a router's input
			a.consumer[p.id].dropContender(int(d), int(a.consBase[p.id])+i)
		}
		a.owner[g] = 0
		h.flags &^= vcRouted
		h.dstOut = -1
		if h.count == 0 {
			a.freeMask[p.id] |= 1 << uint(i)
		}
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
