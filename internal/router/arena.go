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

// MaxVCDepth bounds the per-VC buffer depth so the flit count fits the
// packed descriptor's int16.
const MaxVCDepth = 1 << 15

// vcHot flag bits.
const (
	vcRouted  = 1 << 0 // header forwarded; dstOut/outVC lock the path
	vcHeadHdr = 1 << 1 // the head flit is a header
)

// vcHot is the packed per-VC descriptor read by the arbitration kernel:
// everything eligibility and grant checks need, in 16 bytes, so four
// adjacent VCs share one cache line instead of scattering across six
// arrays. Ring indices, owners and flit storage stay in separate arrays
// that only actual enqueues/dequeues touch.
type vcHot struct {
	headEnq sim.Cycle // enqueue cycle of the head flit (valid when count > 0)
	count   int16     // buffered flits
	dstOut  int16     // output of the occupying packet, -1 until its header is buffered
	outVC   int8      // locked downstream VC (valid when vcRouted)
	flags   uint8     // vcRouted | vcHeadHdr
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
// The arena is also the unit of checkpointing: Snapshot/Restore copy the
// mutable slices wholesale (one copy per backing array), which is what
// lets replicated runs skip re-paying the full fabric build.
type Arena struct {
	ledger    *photonic.Ledger
	occupancy *int64 // shared fabric-wide buffered-flit counter

	// Per-port state, indexed by port id. vcBase/vcCnt/depth/wake are
	// fixed after build; buffered and the masks are hot.
	vcBase   []int32 //hetpnoc:nosnap topology, fixed once NewPort/Reserve wiring completes
	vcCnt    []int32 //hetpnoc:nosnap topology, fixed once NewPort/Reserve wiring completes
	depth    []int32 //hetpnoc:nosnap topology, fixed once NewPort/Reserve wiring completes
	buffered []int32
	occMask  []uint64  // bit v set: VC v holds at least one flit
	freeMask []uint64  // bit v set: VC v is unowned and empty (allocatable)
	wake     []wakeBit //hetpnoc:nosnap wake targets, wired once by WakeIn at build
	// consumer/consBase identify the router arbitrating each port (nil
	// for engine-drained ports) and the port's flat candidate base in
	// that router, so ownership transitions can maintain the router's
	// persistent contender masks. watchers lists the routers feeding the
	// port (those with it as an output destination): draining the port
	// can unblock their arbitration, so pops wake them from quiescence.
	// routers lists every router arbitrating ports of this arena, once
	// each, in construction order.
	consumer []*Router   //hetpnoc:nosnap router wiring, fixed at build
	consBase []int32     //hetpnoc:nosnap router wiring, fixed at build
	watchers [][]*Router //hetpnoc:nosnap router wiring, fixed at build
	routers  []*Router   //hetpnoc:nosnap router wiring, fixed at build; Restore rebuilds their live masks

	// Per-VC state, indexed by the global VC index g = vcBase[port]+vc.
	hot   []vcHot
	head  []int32     // ring read index
	owner []packet.ID // packet occupying the VC (0 when free)
	fbits []int32     // flit size in bits of the buffered packet
	bufs  [][]entry   // ring buffers, grown lazily toward depth
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
		a.head = append(a.head, 0)
		a.owner = append(a.owner, 0)
		a.fbits = append(a.fbits, 0)
		a.bufs = append(a.bufs, nil)
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
		a.head = append(make([]int32, 0, vcs), a.head...)
		a.owner = append(make([]packet.ID, 0, vcs), a.owner...)
		a.fbits = append(make([]int32, 0, vcs), a.fbits...)
		a.bufs = append(make([][]entry, 0, vcs), a.bufs...)
	}
}

// push appends a flit entry to VC g's ring, growing it toward depth.
//
//hetpnoc:hotpath
func (a *Arena) push(g int32, e entry) {
	buf := a.bufs[g]
	if int(a.hot[g].count) == len(buf) {
		buf = a.growBuf(g)
	}
	slot := int(a.head[g]) + int(a.hot[g].count)
	if slot >= len(buf) {
		slot -= len(buf)
	}
	buf[slot] = e
	a.hot[g].count++
}

// growBuf doubles VC g's ring capacity (bounded by its port's depth),
// linearizing the current contents at the front of the new buffer. It is
// the deliberate cold exit of push: each ring grows O(log depth) times
// per run and then steady-state traffic stops allocating.
//
//hetpnoc:coldcall amortized ring growth, O(log depth) times per run, never steady-state
func (a *Arena) growBuf(g int32) []entry {
	old := a.bufs[g]
	depth := a.depthOfVC(g)
	newCap := 2 * len(old)
	if newCap < 8 {
		newCap = 8
	}
	if newCap > depth {
		newCap = depth
	}
	buf := make([]entry, newCap)
	n := int(a.hot[g].count)
	for i := 0; i < n; i++ {
		slot := int(a.head[g]) + i
		if slot >= len(old) {
			slot -= len(old)
		}
		buf[i] = old[slot]
	}
	a.bufs[g] = buf
	a.head[g] = 0
	return buf
}

// depthOfVC returns the configured depth of the port owning VC g.
func (a *Arena) depthOfVC(g int32) int {
	// Ports are appended in order, so binary-search vcBase for the port
	// whose range contains g. Only cold paths need this.
	lo, hi := 0, len(a.vcBase)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.vcBase[mid] <= g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int(a.depth[lo-1])
}

// ArenaSnapshot is a checkpoint of every mutable arena slice. Reusing
// one snapshot across Snapshot calls avoids reallocating the backing
// arrays.
type ArenaSnapshot struct {
	occupancy int64
	buffered  []int32
	occMask   []uint64
	freeMask  []uint64
	hot       []vcHot
	head      []int32
	owner     []packet.ID
	fbits     []int32
	bufs      [][]entry
}

// Snapshot copies the arena's mutable state into s (allocating a fresh
// snapshot when s is nil) and returns it. The copy is one copy call per
// backing slice plus one per in-use VC ring.
func (a *Arena) Snapshot(s *ArenaSnapshot) *ArenaSnapshot {
	if s == nil {
		s = &ArenaSnapshot{}
	}
	s.occupancy = *a.occupancy
	s.buffered = append(s.buffered[:0], a.buffered...)
	s.occMask = append(s.occMask[:0], a.occMask...)
	s.freeMask = append(s.freeMask[:0], a.freeMask...)
	s.hot = append(s.hot[:0], a.hot...)
	s.head = append(s.head[:0], a.head...)
	s.owner = append(s.owner[:0], a.owner...)
	s.fbits = append(s.fbits[:0], a.fbits...)
	if cap(s.bufs) < len(a.bufs) {
		s.bufs = make([][]entry, len(a.bufs))
	}
	s.bufs = s.bufs[:len(a.bufs)]
	for g, buf := range a.bufs {
		s.bufs[g] = append(s.bufs[g][:0], buf...)
	}
	return s
}

// Restore copies snapshot s back into the arena in place. Ring storage
// already sized at snapshot time is reused; rings that grew since are
// truncated back to the snapshot's length so stale packet references do
// not outlive the restore.
func (a *Arena) Restore(s *ArenaSnapshot) error {
	if len(s.hot) != len(a.hot) || len(s.buffered) != len(a.buffered) {
		return fmt.Errorf("router: snapshot shape (%d ports, %d VCs) does not match arena (%d ports, %d VCs)",
			len(s.buffered), len(s.hot), len(a.buffered), len(a.hot))
	}
	*a.occupancy = s.occupancy
	copy(a.buffered, s.buffered)
	copy(a.occMask, s.occMask)
	copy(a.freeMask, s.freeMask)
	copy(a.hot, s.hot)
	copy(a.head, s.head)
	copy(a.owner, s.owner)
	copy(a.fbits, s.fbits)
	for g := range a.bufs {
		want := s.bufs[g]
		have := a.bufs[g]
		if cap(have) < len(want) {
			have = make([]entry, len(want))
		}
		n := copy(have[:cap(have)], want)
		for i := n; i < len(have); i++ {
			have[i] = entry{} // drop references the snapshot did not hold
		}
		a.bufs[g] = have[:len(want)]
	}
	// Ownership state just changed wholesale; the persistent contender
	// masks of every consuming router must be rebuilt to match.
	for _, r := range a.routers {
		r.rebuildLive()
	}
	return nil
}
