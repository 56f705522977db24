package router

import (
	"fmt"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
)

// The flit ring a VC used to be, kept as the oracle for the counters that
// replaced it: one 16-byte entry per buffered flit — the packet pointer
// plus a word holding the enqueue cycle (low 48 bits), the flit sequence
// number (13 bits) and the flit type (3 bits) — in a ring that doubles
// toward the VC's depth. It remembers every flit's type, sequence number
// and exact enqueue cycle; vcHot derives the first two and keeps two
// counts for the third.

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

// refVC is one VC of the reference port: the ring, its read index and
// fill, and the owning packet.
type refVC struct {
	buf   []entry
	head  int
	count int
	owner packet.ID
}

// refPort is a bank of refVCs with the allocation rule of Port: a VC is
// allocatable while it is unowned and empty, and the lowest such VC wins.
type refPort struct {
	depth int
	vcs   []refVC
}

func (p *refPort) allocVC(owner packet.ID) (int, bool) {
	for i := range p.vcs {
		if p.vcs[i].owner == 0 && p.vcs[i].count == 0 {
			p.vcs[i].owner = owner
			return i, true
		}
	}
	return 0, false
}

func (p *refPort) space(i int) int { return p.depth - p.vcs[i].count }

func (p *refPort) occupiedMask() (m uint64) {
	for i := range p.vcs {
		if p.vcs[i].count > 0 {
			m |= 1 << uint(i)
		}
	}
	return m
}

func (p *refPort) freeVCs() (n int) {
	for i := range p.vcs {
		if p.vcs[i].owner == 0 && p.vcs[i].count == 0 {
			n++
		}
	}
	return n
}

func (p *refPort) enqueue(i int, f packet.Flit, now sim.Cycle) error {
	v := &p.vcs[i]
	if v.count >= p.depth {
		return fmt.Errorf("reference: enqueue into full VC %d", i)
	}
	if v.owner != f.Packet.ID {
		return fmt.Errorf("reference: VC %d owned by packet %d, got flit of packet %d", i, v.owner, f.Packet.ID)
	}
	v.push(mkEntry(f, now), p.depth)
	return nil
}

// push appends a flit entry to the ring, growing it toward depth.
func (v *refVC) push(e entry, depth int) {
	if v.count == len(v.buf) {
		v.growBuf(depth)
	}
	slot := v.head + v.count
	if slot >= len(v.buf) {
		slot -= len(v.buf)
	}
	v.buf[slot] = e
	v.count++
}

// growBuf doubles the ring's capacity (bounded by depth), linearizing the
// current contents at the front of the new buffer.
func (v *refVC) growBuf(depth int) {
	old := v.buf
	newCap := 2 * len(old)
	if newCap < 8 {
		newCap = 8
	}
	if newCap > depth {
		newCap = depth
	}
	buf := make([]entry, newCap)
	for i := 0; i < v.count; i++ {
		slot := v.head + i
		if slot >= len(old) {
			slot -= len(old)
		}
		buf[i] = old[slot]
	}
	v.buf = buf
	v.head = 0
}

// headEntry returns the head entry; ok is false when the VC is empty.
func (p *refPort) headEntry(i int) (entry, bool) {
	v := &p.vcs[i]
	if v.count == 0 {
		return entry{}, false
	}
	return v.buf[v.head], true
}

func (p *refPort) pop(i int) (packet.Flit, error) {
	v := &p.vcs[i]
	if v.count == 0 {
		return packet.Flit{}, fmt.Errorf("reference: pop from empty VC %d", i)
	}
	f := v.buf[v.head].flit()
	v.head++
	if v.head == len(v.buf) {
		v.head = 0
	}
	v.count--
	if f.Type.IsTail() {
		v.owner = 0
	}
	return f, nil
}

// vcRig drives a Port and a refPort of the same shape with one schedule.
type vcRig struct {
	port *Port
	ref  *refPort
	now  sim.Cycle
}

// check compares everything a consumer can ask the two ports, and fails
// with what was just done when they disagree.
func (g *vcRig) check(did string) error {
	p, ref := g.port, g.ref
	if got, want := p.OccupiedMask(), ref.occupiedMask(); got != want {
		return fmt.Errorf("cycle %d after %s: OccupiedMask %b, reference %b", g.now, did, got, want)
	}
	if got, want := p.FreeVCs(), ref.freeVCs(); got != want {
		return fmt.Errorf("cycle %d after %s: FreeVCs %d, reference %d", g.now, did, got, want)
	}
	for vc := range ref.vcs {
		if got, want := p.Space(vc), ref.space(vc); got != want {
			return fmt.Errorf("cycle %d after %s: VC %d Space %d, reference %d", g.now, did, vc, got, want)
		}
		if got, want := p.Owner(vc), ref.vcs[vc].owner; got != want {
			return fmt.Errorf("cycle %d after %s: VC %d Owner %d, reference %d", g.now, did, vc, got, want)
		}
		e, ok := ref.headEntry(vc)
		if fl, gotOK := p.head(vc); gotOK != ok || fl != e.flit() {
			return fmt.Errorf("cycle %d after %s: VC %d head (%v, %v), reference (%v, %v)", g.now, did, vc, fl, gotOK, e.flit(), ok)
		}
		// The head's age at this cycle and the two after it: by now+2
		// every buffered flit is eligible, so that answer also carries the
		// header bit of a young head.
		for ahead := sim.Cycle(0); ahead <= PipelineDelay; ahead++ {
			at := g.now + ahead
			want := ok && at-e.enqueued() >= PipelineDelay
			pkt, isHdr, ready := p.HeadReady(vc, at)
			if ready != want {
				return fmt.Errorf("cycle %d after %s: VC %d HeadReady(%d) = %v, reference head enqueued at %d (ok %v)",
					g.now, did, vc, at, ready, e.enqueued(), ok)
			}
			if ready && (pkt != e.pkt || isHdr != e.flit().Type.IsHeader()) {
				return fmt.Errorf("cycle %d after %s: VC %d HeadReady(%d) names packet %v header %v, reference %v header %v",
					g.now, did, vc, at, pkt, isHdr, e.pkt, e.flit().Type.IsHeader())
			}
			if !ready && (pkt != nil || isHdr) {
				return fmt.Errorf("cycle %d after %s: VC %d HeadReady(%d) refused but returned (%v, %v)", g.now, did, vc, at, pkt, isHdr)
			}
		}
	}
	return nil
}

// checkVCReference runs one seeded schedule over both ports: packets of
// 1, 2, 8 and 64 flits claim VCs back to back, their flits arrive in
// bursts of 1-4 per cycle (or not at all), heads are popped eligible and
// young, in phases that let the VCs fill up and that drain them dry in the
// middle of a packet, and 0-5 idle cycles pass between busy ones. Every
// operation is followed by a full comparison.
func checkVCReference(seed uint64, cycles int) error {
	rng := sim.NewRNG(seed)
	vcs := 1 + rng.Intn(3)
	depth := []int{4, 16, 64}[rng.Intn(3)]
	var occ int64
	port, err := NewPort(vcs, depth, photonic.NewLedger(photonic.DefaultEnergyParams()), &occ)
	if err != nil {
		return err
	}
	g := &vcRig{port: port, ref: &refPort{depth: depth, vcs: make([]refVC, vcs)}}

	type feed struct {
		pkt  *packet.Packet
		next int
	}
	feeds := make([]feed, vcs)
	sizes := []int{1, 2, 8, 64}
	popBudgets := []int{0, 1, 4, 1 << 20}
	nextID := packet.ID(1)
	for c := 0; c < cycles; c++ {
		// A new packet claims a VC as soon as the previous one has been
		// enqueued in full and its tail has left.
		if rng.Bernoulli(0.7) {
			pkt := &packet.Packet{ID: nextID, Flits: sizes[rng.Intn(len(sizes))], FlitBits: 32}
			vc, ok := g.port.AllocVC(pkt.ID)
			refVC, refOK := g.ref.allocVC(pkt.ID)
			if ok != refOK || vc != refVC {
				return fmt.Errorf("cycle %d: AllocVC (%d, %v), reference (%d, %v)", g.now, vc, ok, refVC, refOK)
			}
			if ok {
				feeds[vc] = feed{pkt: pkt}
				nextID++
			}
			if err := g.check("AllocVC"); err != nil {
				return err
			}
		}
		for vc := range feeds {
			f := &feeds[vc]
			if f.pkt == nil || rng.Bernoulli(0.25) {
				continue
			}
			for n := 1 + rng.Intn(4); n > 0 && f.next < f.pkt.Flits && g.ref.space(vc) > 0; n-- {
				fl := packet.FlitAt(f.pkt, f.next)
				if err := g.ref.enqueue(vc, fl, g.now); err != nil {
					return err
				}
				if err := g.port.Enqueue(vc, fl, g.now); err != nil {
					return fmt.Errorf("cycle %d: %w", g.now, err)
				}
				f.next++
				if err := g.check(fmt.Sprintf("Enqueue(%d, %v)", vc, fl)); err != nil {
					return err
				}
			}
			if f.next == f.pkt.Flits {
				f.pkt = nil
			}
		}
		// Pops come in phases: none (the VC fills), one, a few, and all
		// there is (the VC runs dry mid-packet and is refilled later).
		budget := popBudgets[(c/24+rng.Intn(2))%len(popBudgets)]
		for vc := range feeds {
			for n := budget; n > 0; n-- {
				e, ok := g.ref.headEntry(vc)
				if !ok {
					if _, err := g.port.Pop(vc); err == nil {
						return fmt.Errorf("cycle %d: Pop(%d) accepted on an empty VC", g.now, vc)
					}
					break
				}
				if young := g.now-e.enqueued() < PipelineDelay; young && !rng.Bernoulli(0.3) {
					break
				}
				want, err := g.ref.pop(vc)
				if err != nil {
					return err
				}
				got, err := g.port.Pop(vc)
				if err != nil {
					return fmt.Errorf("cycle %d: %w", g.now, err)
				}
				if got != want {
					return fmt.Errorf("cycle %d: Pop(%d) = %v of %p, reference %v of %p", g.now, vc, got, got.Packet, want, want.Packet)
				}
				if err := g.check(fmt.Sprintf("Pop(%d) of %v", vc, got)); err != nil {
					return err
				}
			}
		}
		g.now += 1 + sim.Cycle(rng.Intn(6))
	}
	if occ != int64(g.port.BufferedFlits()) {
		return fmt.Errorf("occupancy %d, %d flits buffered", occ, g.port.BufferedFlits())
	}
	return nil
}

// TestVCMatchesRingReference: a VC kept as counters answers every question
// — the popped flit, the head, its header bit, its eligibility now and at
// the next two cycles, the space left, the occupancy and free-VC state —
// exactly as the flit ring it replaced.
func TestVCMatchesRingReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		if err := checkVCReference(seed, 400); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzVCReference(f *testing.F) {
	f.Add(uint64(1), uint16(400))
	f.Add(uint64(0x9e3779b97f4a7c15), uint16(90))
	f.Fuzz(func(t *testing.T, seed uint64, cycles uint16) {
		if err := checkVCReference(seed, int(cycles)%2048); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
