package router

import (
	"fmt"
	"math/bits"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
)

// PipelineDelay is the number of cycles a flit must be buffered before it
// is eligible for output arbitration, modelling the input-arbitration and
// routing/crossbar stages of the 3-stage router (§3.3.2). With the
// single-cycle link transfer this gives the canonical 3-cycle hop.
const PipelineDelay sim.Cycle = 2

// RouteFunc maps a header flit to the index of the output its packet
// leaves through. It must be a pure function of the packet: the router
// asks once, when the header is buffered (Port.Enqueue), and holds the
// packet to that answer until its tail departs. An answer outside the
// attached outputs fails that Enqueue, so the router must be fully wired —
// inputs registered by New, every output attached — before traffic is
// buffered.
type RouteFunc func(f packet.Flit) int

// output is one router output, stored by value in Router.outputs so
// arbitration reads it without a pointer chase: the downstream input
// port it feeds (a view, copied), the number of flits it can transfer per
// cycle (its datapath width), its round-robin cursor, and whether
// forwarding through it dissipates wire-link energy — internal hops
// inside the photonic router (to the transmit engine) cross no chip wire.
type output struct {
	dst    Port
	width  int32
	rr     int32
	charge bool
}

// MaxOutputs bounds a router's output count so the set of outputs with
// contenders fits one bitmask word.
const MaxOutputs = 64

// cand is the packed per-candidate descriptor of the arbitration scan:
// the global arena VC index plus the (input port, VC) pair it decodes to.
type cand struct {
	g  int32
	in int16
	vc int16
}

// Router is a wormhole virtual-channel router. Its inputs must all be
// views of one Arena: arbitration walks the arena's occupancy bitmasks
// and flat per-VC scalars rather than per-object buffers.
type Router struct {
	name    string
	arena   *Arena
	inputs  []*Port
	inPort  []int32
	outputs []output
	route   RouteFunc
	ledger  *photonic.Ledger

	// cand maps a flat arbitration-scan index to its packed (global
	// arena VC, input port, VC) triple, precomputed so a scan visit is
	// one 8-byte load. candBase[i] is the flat index of input i's VC 0.
	cand     []cand
	candBase []int

	// Per-Tick scratch, retained across cycles so the hot loop never
	// allocates: per output, the bitmask of eligible candidates
	// targeting it, stored flat with stride maskWords (output o owns
	// words [o*maskWords, (o+1)*maskWords)).
	maskWords int
	outMask   []uint64
	// budget holds each input's remaining per-Tick dequeue allowance,
	// reset from widths32 (the configured widths) at Tick start.
	budget   []int32
	widths32 []int32

	// liveMask is the persistent counterpart of outMask: bit set while an
	// input VC is owned by a packet routed to that output. Because a
	// packet's route is fixed from header enqueue to tail pop, the masks
	// change only on those ownership transitions (maintained by
	// Port.Enqueue/Pop through the arena's consumer registry), and Tick
	// seeds its scratch with one copy instead of re-walking every buffered
	// VC.
	//
	// hdrMask is the subset of liveMask whose header has not been
	// forwarded yet (set with the live bit at header enqueue, cleared when
	// Tick locks the path, and with the live bit). Those are exactly the
	// candidates that need a downstream VC, so when the downstream port
	// has none free Tick drops them from the scratch wholesale instead of
	// visiting each one to hear the same refusal.
	//
	// outMask, liveMask and hdrMask share the stride and are carved from
	// one allocation (see growMasks). An arena Restore rebuilds liveMask
	// and hdrMask from the restored ownership (rebuildLive).
	liveMask []uint64
	hdrMask  []uint64
	// liveAny is a lazy per-output summary of liveMask: bit o is set
	// whenever output o might have a contender. Ownership transitions set
	// it eagerly; Tick clears it when a copy finds the output's words all
	// zero, so idle outputs cost nothing per cycle.
	liveAny uint64

	// Quiescence: a Tick that grants nothing is a pure function — it
	// changes no round-robin cursor, charges no energy and moves no flit —
	// so its outcome repeats until an external event can flip a rejection.
	// After a grantless Tick the router records quiet=true and the
	// earliest cycle a too-young head becomes eligible (wakeAt); Ticks
	// before then return immediately. Every event that can change the
	// outcome clears the flag: a flit arriving at an input (Port.Enqueue
	// via the consumer registry), a downstream port draining or freeing a
	// VC (Port.Pop via the watcher registry), and aging (wakeAt). Blocked
	// routers in a congested fabric thus cost two loads per cycle instead
	// of a full scan-and-kill pass.
	quiet  bool
	wakeAt sim.Cycle
}

// quietForever marks a quiescent period that only an external wake event
// can end (no young head is waiting to age in).
const quietForever = sim.Cycle(1) << 62

// New creates a router with the given name, input ports and routing
// function. All inputs must share one arena. Outputs are attached with
// AddOutput in index order.
func New(name string, inputs []*Port, inWidths []int, route RouteFunc, ledger *photonic.Ledger) (*Router, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("router %s: needs at least one input", name)
	}
	if len(inWidths) != len(inputs) {
		return nil, fmt.Errorf("router %s: %d input widths for %d inputs", name, len(inWidths), len(inputs))
	}
	for i, w := range inWidths {
		if w <= 0 {
			return nil, fmt.Errorf("router %s: input %d width must be positive", name, i)
		}
	}
	if route == nil || ledger == nil {
		return nil, fmt.Errorf("router %s: needs a route function and ledger", name)
	}
	arena := inputs[0].a
	for i, in := range inputs {
		if in.a != arena {
			return nil, fmt.Errorf("router %s: input %d belongs to a different arena", name, i)
		}
	}
	r := &Router{name: name, arena: arena, inputs: inputs, route: route, ledger: ledger}
	total := 0
	for _, in := range inputs {
		total += in.VCCount()
	}
	r.cand = make([]cand, 0, total)
	r.candBase = make([]int, len(inputs))
	r.inPort = make([]int32, len(inputs))
	r.widths32 = make([]int32, len(inputs))
	for i, in := range inputs {
		r.inPort[i] = in.id
		r.candBase[i] = len(r.cand)
		r.widths32[i] = int32(inWidths[i])
		arena.consumer[in.id] = r
		arena.consBase[in.id] = int32(r.candBase[i])
		for vc := 0; vc < in.VCCount(); vc++ {
			r.cand = append(r.cand, cand{g: arena.vcBase[in.id] + int32(vc), in: int16(i), vc: int16(vc)})
		}
	}
	r.maskWords = (total + 63) / 64
	r.budget = make([]int32, len(inputs))
	// A switch has about as many outputs as inputs; sizing for that makes
	// the output table and the mask slab one allocation each for every
	// router the fabric builds. AddOutput grows both if a rig needs more.
	r.outputs = make([]output, 0, len(inputs))
	r.growMasks(len(inputs))
	arena.routers = append(arena.routers, r)
	return r, nil
}

// growMasks re-carves outMask, liveMask and hdrMask from one fresh slab
// with room for outs outputs, keeping the persistent masks' contents.
func (r *Router) growMasks(outs int) {
	n := outs * r.maskWords
	slab := make([]uint64, 3*n)
	copy(slab[n:2*n], r.liveMask)
	copy(slab[2*n:], r.hdrMask)
	r.outMask, r.liveMask, r.hdrMask = slab[:n:n], slab[n:2*n:2*n], slab[2*n:]
}

// addContender enters flat candidate idx into output o's persistent
// masks as a waiting header: its packet's header has just been buffered.
func (r *Router) addContender(o, idx int) {
	k, bit := o*r.maskWords+(idx>>6), uint64(1)<<(uint(idx)&63)
	r.liveMask[k] |= bit
	r.hdrMask[k] |= bit
	r.liveAny |= 1 << uint(o)
}

// dropContender removes flat candidate idx from output o's persistent
// masks: its packet's tail has left the input VC.
func (r *Router) dropContender(o, idx int) {
	k, bit := o*r.maskWords+(idx>>6), uint64(1)<<(uint(idx)&63)
	r.liveMask[k] &^= bit
	r.hdrMask[k] &^= bit
}

// Input returns input port i.
func (r *Router) Input(i int) *Port { return r.inputs[i] }

// Inputs returns the number of input ports.
func (r *Router) Inputs() int { return len(r.inputs) }

// AddOutput attaches the next output, feeding dst with the given per-cycle
// flit width, and returns its index. chargeLink selects whether forwarding
// through this output dissipates wire-link energy.
func (r *Router) AddOutput(dst *Port, width int, chargeLink bool) (int, error) {
	if dst == nil {
		return 0, fmt.Errorf("router %s: output needs a destination port", r.name)
	}
	if width <= 0 {
		return 0, fmt.Errorf("router %s: output width must be positive, got %d", r.name, width)
	}
	if len(r.outputs) >= MaxOutputs {
		return 0, fmt.Errorf("router %s: output count exceeds bitmask capacity %d", r.name, MaxOutputs)
	}
	r.outputs = append(r.outputs, output{dst: *dst, width: int32(width), charge: chargeLink})
	if need := len(r.outputs) * r.maskWords; need > len(r.outMask) {
		r.growMasks(2 * len(r.outputs))
	}
	dst.a.watchers[dst.id] = append(dst.a.watchers[dst.id], r)
	return len(r.outputs) - 1, nil
}

// Outputs returns the number of attached outputs.
func (r *Router) Outputs() int { return len(r.outputs) }

// Tick performs one cycle of output arbitration: for every output, up to
// `width` eligible flits are moved from input VCs to the downstream port.
// Headers, whose output was resolved when they were buffered, claim a
// downstream VC; body and tail flits follow the path their header locked.
//
// The kernel is bit-identical to the reference object-walking scan
// (refRouter in equivalence_test.go, held to it cycle for cycle): it
// snapshots the candidates once (a VC empty at snapshot time cannot
// produce an eligible flit later this cycle, and an ineligible head only
// gets younger when popped), then replays the reference position sequence
// t = (out.rr + scan) mod candidates per output, jumping over
// non-contenders with next-set-bit scans. Candidates are binned into
// per-output masks by their route (visits of candidates targeting another
// output have no side effects in the reference), so each output only
// walks its own contenders.
func (r *Router) Tick(now sim.Cycle) error {
	if r.quiet {
		if now < r.wakeAt {
			// No input arrival, no downstream drain and no head aging in
			// since the last grantless scan: its zero-grant, zero-effect
			// outcome would repeat verbatim.
			return nil
		}
		r.quiet = false
	}
	nonEmpty := r.seedScratch() // bit o set: output o has at least one contender
	if nonEmpty == 0 {
		r.quiet = true
		r.wakeAt = quietForever
		return nil
	}

	// Index-guard note: the scans below decode indices from bitmask bits
	// and packed candidate descriptors, relations the compiler cannot see
	// through, so every decoded index is checked once with an unsigned
	// compare against the slice it drives. The guards are dead by
	// construction (masks, candidates and arena views are sized together
	// at build), but they anchor bounds-check elimination for every access
	// they dominate.
	a := r.arena
	nw := r.maskWords
	outMask, hdrMask := r.outMask, r.hdrMask
	outputs := r.outputs
	// Per-cycle dequeue budget per input port (switch constraint).
	budget := r.budget
	copy(budget, r.widths32)

	anyGrant := false
	minReady := quietForever
	cand := r.cand
	candidates := len(cand)
	hot := a.hot
	owner, fbits := a.owner, a.fbits
	inputs := r.inputs
	for ne := nonEmpty; ne != 0; ne &= ne - 1 {
		o := bits.TrailingZeros64(ne)
		if uint(o) >= uint(len(outputs)) {
			continue
		}
		out := &outputs[o]
		base := o * nw
		end := base + nw
		if base < 0 || end < base || end > len(outMask) || end > len(hdrMask) {
			continue
		}
		mask := outMask[base:end]
		hdr := hdrMask[base:end]
		width := int(out.width)
		granted := 0
		// The reference scan evaluates position (out.rr + scan) mod
		// candidates for scan = 0..candidates-1, reading out.rr live — a
		// grant advances out.rr mid-scan, shifting every later position.
		// Reproduce that sequence exactly, jumping in one step over runs
		// of candidates not contending for this output.
		//
		// Every rejecting visit clears the candidate's mask bit: each
		// rejection cause is monotone for the rest of this output's scan
		// (budgets never replenish, drained VCs cannot refill mid-Tick,
		// heads only get younger, downstream VCs and buffer space are
		// never freed while this router runs), and in the reference a
		// rejected visit has no side effects, so skipping the revisit
		// leaves the position sequence of every other candidate intact.
		for scan := 0; scan < candidates && granted < width; scan++ {
			t := int(out.rr) + scan
			if t >= candidates {
				t -= candidates
			}
			// First contending flat index at or circularly after t.
			idx := sim.NextSet(mask, t)
			wrapped := false
			if idx < 0 {
				idx = sim.NextSet(mask, 0)
				if idx < 0 {
					break // every contender proved dead this cycle
				}
				wrapped = true
			}
			d := idx - t
			if d < 0 || wrapped {
				d += candidates
			}
			scan += d
			if scan >= candidates {
				break
			}
			wi := idx >> 6
			if uint(idx) >= uint(len(cand)) || uint(wi) >= uint(len(mask)) || uint(wi) >= uint(len(hdr)) {
				continue
			}
			bit := uint64(1) << (uint(idx) & 63)
			c := cand[idx]
			g := int(c.g)
			in := int(c.in)
			if uint(g) >= uint(len(hot)) || uint(g) >= uint(len(owner)) ||
				uint(g) >= uint(len(fbits)) ||
				uint(in) >= uint(len(inputs)) || uint(in) >= uint(len(budget)) {
				continue
			}
			h := &hot[g]
			// Re-check liveness: an earlier grant may have drained the
			// VC, exposed a younger head, or spent the input's budget.
			if budget[in] == 0 || h.count == 0 {
				mask[wi] &^= bit
				continue
			}
			if ready := h.readyAt(); now < ready {
				// A too-young head is the one rejection that flips with
				// time alone; record when it ages in so a grantless Tick
				// knows how long its outcome is guaranteed to repeat.
				if ready < minReady {
					minReady = ready
				}
				mask[wi] &^= bit
				continue
			}

			// A bit in this output's mask means the VC's packet is routed
			// here (dstOut == o from header enqueue to tail pop). Until
			// its header has been forwarded the header is the head flit,
			// and only the downstream VC remains to be settled.
			if !h.routed {
				dstVC, ok := out.dst.AllocVC(owner[g])
				if !ok {
					// No free downstream VC, and none can free up before
					// this Tick returns: every header still waiting at
					// this output (this one included) would get the same
					// answer, so drop them all; they retry next cycle.
					for j := range mask {
						if j < len(hdr) {
							mask[j] &^= hdr[j]
						}
					}
					continue
				}
				hdr[wi] &^= bit
				h.routed = true
				h.outVC = int8(dstVC)
			}

			dstVC := int(h.outVC)
			if out.dst.Space(dstVC) == 0 {
				mask[wi] &^= bit
				continue
			}

			popped, err := inputs[in].Pop(int(c.vc)) // releases the VC on tail
			if err != nil {
				return fmt.Errorf("router %s: %w", r.name, err)
			}
			if err := out.dst.Enqueue(dstVC, popped, now); err != nil {
				return fmt.Errorf("router %s: %w", r.name, err)
			}
			flitBits := int64(fbits[g])
			r.ledger.Add(photonic.EnergyRouter, flitBits)
			if out.charge {
				r.ledger.Add(photonic.EnergyWireLink, flitBits)
			}
			budget[in]--
			granted++
			anyGrant = true
			out.rr = int32((idx + 1) % candidates)
		}
	}
	if !anyGrant {
		// Grantless: every rejection this cycle was either age-bound
		// (covered by wakeAt) or waits on an external event that clears
		// r.quiet — an input arrival or a downstream drain. Until one of
		// those fires, skip the scan outright.
		r.quiet = true
		r.wakeAt = minReady
	}
	return nil
}

// seedScratch seeds the per-output scratch masks from the persistent
// masks and returns the bitmask of outputs with at least one contender.
// The persistent masks already bin every owned VC by its
// fixed route, so one copy per live output does it. Extra bits — VCs that
// are momentarily empty or whose head is still too young — are exactly
// the candidates the reference scan visits and skips with no side effect,
// and Tick's scan kills them on first visit.
//
// Waiting headers are the exception worth filtering here: when the
// output's downstream port has no free VC, every one of them would be
// visited only to fail AllocVC, and no VC can free up before this Tick
// returns. Seeding without them is the same outcome; an output left with
// nothing else contributes no visits, and a router with only such outputs
// goes quiet until a Pop on the downstream port wakes it.
func (r *Router) seedScratch() uint64 {
	nw := r.maskWords
	outMask, liveMask, hdrMask := r.outMask, r.liveMask, r.hdrMask
	outputs := r.outputs
	var nonEmpty uint64
	// As in Tick, each decoded index is guarded once with a dead-by-
	// construction unsigned compare so the accesses it dominates carry no
	// bounds checks.
	for la := r.liveAny; la != 0; la &= la - 1 {
		o := bits.TrailingZeros64(la)
		if uint(o) >= uint(len(outputs)) {
			continue
		}
		dst := &outputs[o].dst
		free := dst.a.freeMask
		var strip uint64 // all ones: drop waiting headers from the seed
		if id := int(dst.id); uint(id) < uint(len(free)) && free[id] == 0 {
			strip = ^uint64(0)
		}
		base := o * nw
		var live, any uint64
		for j := 0; j < nw; j++ {
			k := base + j
			if uint(k) >= uint(len(liveMask)) || uint(k) >= uint(len(hdrMask)) || uint(k) >= uint(len(outMask)) {
				continue
			}
			w := liveMask[k]
			live |= w
			w &^= hdrMask[k] & strip
			outMask[k] = w
			any |= w
		}
		if any != 0 {
			nonEmpty |= 1 << uint(o)
		} else if live == 0 {
			r.liveAny &^= 1 << uint(o)
		}
	}
	return nonEmpty
}

// rebuildLive recomputes the persistent contender masks from the arena's
// ownership state, after a Restore rewrote it wholesale.
func (r *Router) rebuildLive() {
	for i := range r.liveMask {
		r.liveMask[i] = 0
		r.hdrMask[i] = 0
	}
	r.liveAny = 0
	r.quiet = false
	a := r.arena
	nw := r.maskWords
	for i, p := range r.inPort {
		base := r.candBase[i]
		gBase := a.vcBase[p]
		for v := 0; v < int(a.vcCnt[p]); v++ {
			g := gBase + int32(v)
			if a.owner[g] == 0 {
				continue
			}
			h := &a.hot[g]
			d := int(h.dstOut)
			if d < 0 {
				continue // claimed, header not buffered yet
			}
			idx := base + v
			r.addContender(d, idx)
			if h.routed {
				r.hdrMask[d*nw+(idx>>6)] &^= 1 << (uint(idx) & 63)
			}
		}
	}
}

// RRState appends the round-robin cursor of every output to dst, for
// checkpointing; SetRRState restores them.
func (r *Router) RRState(dst []int) []int {
	for i := range r.outputs {
		dst = append(dst, int(r.outputs[i].rr))
	}
	return dst
}

// SetRRState restores cursors previously captured by RRState and returns
// the unconsumed tail of src.
func (r *Router) SetRRState(src []int) []int {
	for i := range r.outputs {
		r.outputs[i].rr = int32(src[0])
		src = src[1:]
	}
	return src
}

// BlockedHeaders returns how many input VCs hold a header waiting at an
// output whose downstream port has no free VC, for tests and diagnostics.
func (r *Router) BlockedHeaders() int {
	n := 0
	for o := range r.outputs {
		if r.outputs[o].dst.FreeVCs() != 0 {
			continue
		}
		for _, w := range r.hdrMask[o*r.maskWords : (o+1)*r.maskWords] {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// BufferedFlits returns the flits buffered across all input ports, for
// tests and diagnostics.
func (r *Router) BufferedFlits() int {
	buffered, n := r.arena.buffered, int32(0)
	for _, p := range r.inPort {
		pi := int(p)
		if uint(pi) >= uint(len(buffered)) {
			continue // unreachable: ids are assigned by Reserve; the guard anchors BCE
		}
		n += buffered[pi]
	}
	return int(n)
}
