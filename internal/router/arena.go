package router

import (
	"fmt"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
)

// MaxVCsPerPort bounds the VC count of a single port so a port's VC
// occupancy and free-VC state each fit in one uint64 bitmask word.
const MaxVCsPerPort = 64

// MaxVCDepth bounds the per-VC buffer depth so the flit counts fit the
// descriptor's int16s.
const MaxVCDepth = 1 << 15

// The two age groups of vcHot are PipelineDelay written out, not a loop
// over a configurable depth: both lines must compile.
const (
	_ = uint(PipelineDelay - 2)
	_ = uint(2 - PipelineDelay)
)

// vcHot is the per-VC descriptor, and all there is to a VC: a header
// claims a VC and the tail releases it, so a VC only ever holds
// consecutive flits of one packet and its contents are the packet, the
// head flit's sequence number and a count. No flit is stored.
//
// Ages are kept just as coarsely as anyone asks: the only question is
// whether the head has been buffered for PipelineDelay (2) cycles, so the
// descriptor counts the buffered flits enqueued at the cycle of the most
// recent enqueue (young0) and at the cycle before it (young1). Flits
// leave from the old end, so young0+young1 <= count always holds; the
// head is one of the young flits exactly when the sum equals count, and
// every other flit is at least two cycles old whenever anyone looks.
//
// 32 bytes: two adjacent VCs share a cache line, and the arbitration
// kernel, the engines' eligibility scans, Enqueue and Pop all work on
// this one line per VC (owner and fbits stay in their own arrays).
type vcHot struct {
	pkt     *packet.Packet // occupying packet: set when a flit enters the empty VC, nil once its tail has left
	lastEnq sim.Cycle      // cycle of the most recent enqueue
	headSeq int32          // sequence number of the head flit (valid when count > 0)
	count   int16          // buffered flits
	young0  int16          // of those, enqueued at lastEnq
	young1  int16          // of those, enqueued at lastEnq-1
	dstOut  int16          // output of the occupying packet, -1 until its header is buffered
	outVC   int8           // locked downstream VC (valid when routed)
	routed  bool           // header forwarded; dstOut/outVC lock the path
}

// readyAt returns the cycle from which a non-empty VC's head flit has
// spent PipelineDelay cycles in the buffer. It is exact while the head is
// one of the young flits and a lower bound that no caller's now precedes
// (lastEnq) once it is older.
func (h *vcHot) readyAt() sim.Cycle {
	switch {
	case h.young0+h.young1 < h.count:
		return h.lastEnq
	case h.young1 > 0:
		return h.lastEnq + 1
	default:
		return h.lastEnq + 2
	}
}

// wakeBit is the bit a port sets when it goes from empty to non-empty;
// the zero wakeBit wakes nothing.
type wakeBit struct {
	set *sim.Bitset
	bit int32
}

// Arena is the struct-of-arrays backing store for every Port in a
// fabric: all per-port and per-VC state lives in flat contiguous slices
// indexed by port id and by global VC index (vcBase[port]+vc). Port is a
// thin view over an arena, so the object API survives while the
// per-cycle kernels walk scalar slices and bitmasks instead of chasing
// per-object pointers.
//
// The arena is also the unit of checkpointing: its mutable slices are
// its state, and Snapshot/Restore copy that wholesale (one copy per
// backing array), which is what lets replicated runs skip re-paying the
// full fabric build.
type Arena struct {
	ledger *photonic.Ledger

	// occupancy is the shared fabric-wide buffered-flit counter. Its
	// owner (the fabric's state) checkpoints it; the pointer is never
	// reassigned.
	occupancy *int64

	// Per-port wiring, indexed by port id, fixed after build.
	vcBase []int32
	vcCnt  []int32
	depth  []int32
	wake   []wakeBit
	// consumer/consBase identify the router arbitrating each port (nil
	// for engine-drained ports) and the port's flat candidate base in
	// that router, so ownership transitions can maintain the router's
	// persistent contender masks. watchers lists the routers feeding the
	// port (those with it as an output destination): draining the port
	// can unblock their arbitration, so pops wake them from quiescence.
	// routers lists every router arbitrating ports of this arena, once
	// each, in construction order; Restore rebuilds their live masks.
	// All four are fixed at build.
	consumer []*Router
	consBase []int32
	watchers [][]*Router
	routers  []*Router

	state
}

// state is the arena's checkpointed part: the hot per-port counters and
// masks and the per-VC slices.
type state struct {
	// Per-port state, indexed by port id.
	buffered []int32
	occMask  []uint64 // bit v set: VC v holds at least one flit
	freeMask []uint64 // bit v set: VC v is unowned and empty (allocatable)

	// Per-VC state, indexed by the global VC index g = vcBase[port]+vc.
	hot   []vcHot
	owner []packet.ID // packet occupying the VC (0 when free)
	fbits []int32     // flit size in bits of the buffered packet
}

// copyFrom makes dst a copy of src that shares no backing array with it,
// reusing dst's arrays.
func (dst *state) copyFrom(src *state) {
	keep := *dst
	*dst = *src
	dst.buffered = append(keep.buffered[:0], src.buffered...)
	dst.occMask = append(keep.occMask[:0], src.occMask...)
	dst.freeMask = append(keep.freeMask[:0], src.freeMask...)
	dst.hot = append(keep.hot[:0], src.hot...)
	dst.owner = append(keep.owner[:0], src.owner...)
	dst.fbits = append(keep.fbits[:0], src.fbits...)
}

// NewArena returns an empty arena charging buffer energy to ledger and
// tracking total buffered flits in occupancy.
func NewArena(ledger *photonic.Ledger, occupancy *int64) (*Arena, error) {
	if ledger == nil || occupancy == nil {
		return nil, fmt.Errorf("router: arena needs a ledger and occupancy counter")
	}
	return &Arena{ledger: ledger, occupancy: occupancy}, nil
}

// NewPort appends a port with vcCount virtual channels of the given
// per-VC depth and returns its view. vcCount is capped at MaxVCsPerPort
// so the per-port occupancy and free-VC masks stay single words.
func (a *Arena) NewPort(vcCount, depth int) (*Port, error) {
	if vcCount <= 0 || depth <= 0 {
		return nil, fmt.Errorf("router: port needs positive VC count (%d) and depth (%d)", vcCount, depth)
	}
	if vcCount > MaxVCsPerPort {
		return nil, fmt.Errorf("router: port VC count %d exceeds bitmask capacity %d", vcCount, MaxVCsPerPort)
	}
	if depth > MaxVCDepth {
		return nil, fmt.Errorf("router: port VC depth %d exceeds descriptor capacity %d", depth, MaxVCDepth)
	}
	id := int32(len(a.vcBase))
	base := int32(len(a.hot))
	a.vcBase = append(a.vcBase, base)
	a.vcCnt = append(a.vcCnt, int32(vcCount))
	a.depth = append(a.depth, int32(depth))
	a.buffered = append(a.buffered, 0)
	a.occMask = append(a.occMask, 0)
	a.freeMask = append(a.freeMask, ^uint64(0)>>(64-uint(vcCount)))
	a.wake = append(a.wake, wakeBit{})
	a.consumer = append(a.consumer, nil)
	a.consBase = append(a.consBase, 0)
	a.watchers = append(a.watchers, nil)
	for v := 0; v < vcCount; v++ {
		a.hot = append(a.hot, vcHot{dstOut: -1})
		a.owner = append(a.owner, 0)
		a.fbits = append(a.fbits, 0)
	}
	return &Port{a: a, id: id}, nil
}

// Reserve pre-sizes the backing slices for ports ports holding vcs VCs
// in total, so a builder that knows its fabric shape avoids the append
// growth copies. Appending beyond the reservation still works.
func (a *Arena) Reserve(ports, vcs int) {
	if ports > cap(a.vcBase) {
		a.vcBase = append(make([]int32, 0, ports), a.vcBase...)
		a.vcCnt = append(make([]int32, 0, ports), a.vcCnt...)
		a.depth = append(make([]int32, 0, ports), a.depth...)
		a.buffered = append(make([]int32, 0, ports), a.buffered...)
		a.occMask = append(make([]uint64, 0, ports), a.occMask...)
		a.freeMask = append(make([]uint64, 0, ports), a.freeMask...)
		a.wake = append(make([]wakeBit, 0, ports), a.wake...)
		a.consumer = append(make([]*Router, 0, ports), a.consumer...)
		a.consBase = append(make([]int32, 0, ports), a.consBase...)
		a.watchers = append(make([][]*Router, 0, ports), a.watchers...)
	}
	if vcs > cap(a.hot) {
		a.hot = append(make([]vcHot, 0, vcs), a.hot...)
		a.owner = append(make([]packet.ID, 0, vcs), a.owner...)
		a.fbits = append(make([]int32, 0, vcs), a.fbits...)
	}
}

// EachVC calls visit for every VC in port and VC order with the ID of
// the packet owning it (0 when free), the flits it buffers and the packet
// its descriptor names, for tests and diagnostics: an owned, non-empty VC
// names its owner and a free one names nothing.
func (a *Arena) EachVC(visit func(port, vc int, owner packet.ID, flits int, pkt *packet.Packet)) {
	for p, base := range a.vcBase {
		for v := 0; v < int(a.vcCnt[p]); v++ {
			h := &a.hot[int(base)+v]
			visit(p, v, a.owner[int(base)+v], int(h.count), h.pkt)
		}
	}
}

// ArenaSnapshot is a checkpoint of the arena: a copy of its state. The
// packet pointers in hot stay valid across a Restore because the packet
// pool restores slot contents in place and never moves a packet.
type ArenaSnapshot = state

// Snapshot copies the arena's state into dst, reusing its arrays.
func (a *Arena) Snapshot(dst *ArenaSnapshot) { dst.copyFrom(&a.state) }

// Restore copies snapshot s back into the arena in place.
func (a *Arena) Restore(s *ArenaSnapshot) error {
	if len(s.hot) != len(a.hot) || len(s.buffered) != len(a.buffered) {
		return fmt.Errorf("router: snapshot shape (%d ports, %d VCs) does not match arena (%d ports, %d VCs)",
			len(s.buffered), len(s.hot), len(a.buffered), len(a.hot))
	}
	a.state.copyFrom(s)
	// Ownership state just changed wholesale; the persistent contender
	// masks of every consuming router must be rebuilt to match.
	for _, r := range a.routers {
		r.rebuildLive()
	}
	return nil
}
