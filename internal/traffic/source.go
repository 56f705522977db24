package traffic

import (
	"fmt"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// Source turns a CoreProfile into a cycle-by-cycle packet generator. It
// accumulates bandwidth credit every cycle (rate x load scale, in bits)
// and emits a packet whenever a full packet's worth has accrued, sampling
// the destination from the profile. Generation is deterministic given the
// RNG stream.
//
// A Source is a plain value that owns its RNG stream: everything it
// mutates (credit, burst phase, RNG) is held by value and everything it
// points at is shared with its owner, so assigning one Source to another
// is a complete checkpoint or restore of it.
type Source struct {
	core    topology.CoreID
	profile CoreProfile
	format  packet.Format
	rng     sim.RNG

	bitsPerCycle float64
	credit       float64

	// On/off burst state (Burstiness > 1): during ON the source earns
	// burstiness x bitsPerCycle; pOnToOff/pOffToOn are the per-cycle
	// Markov transition probabilities sized for the configured mean
	// burst length and the long-run duty cycle 1/burstiness.
	bursty    bool
	burstRate float64
	on        bool
	pOnToOff  float64
	pOffToOn  float64

	// The run-wide ID counters and the packet pool belong to the owner,
	// which checkpoints them itself.
	nextMessage *packet.MessageID
	nextPacket  *packet.ID
	pool        *packet.Pool
}

// NewSource builds a source for core with the given profile and framing,
// drawing its randomness from rng and its packets from pool. messageIDs
// and packetIDs are shared run-wide counters so every packet in a run
// gets a unique identity.
func NewSource(core topology.CoreID, profile CoreProfile, format packet.Format, clock sim.Clock,
	loadScale float64, rng sim.RNG, pool *packet.Pool, messageIDs *packet.MessageID, packetIDs *packet.ID) (Source, error) {
	if err := format.Validate(); err != nil {
		return Source{}, err
	}
	if loadScale < 0 {
		return Source{}, fmt.Errorf("traffic: load scale must be non-negative, got %g", loadScale)
	}
	if profile.RateGbps > 0 && profile.PickDest == nil {
		return Source{}, fmt.Errorf("traffic: core %d has a rate but no destination sampler", core)
	}
	if profile.Burstiness < 0 || profile.BurstCycles < 0 {
		return Source{}, fmt.Errorf("traffic: core %d has negative burst parameters", core)
	}
	s := Source{
		core:         core,
		profile:      profile,
		format:       format,
		rng:          rng,
		bitsPerCycle: clock.GbpsToBitsPerCycle(profile.RateGbps * loadScale),
		nextMessage:  messageIDs,
		nextPacket:   packetIDs,
		pool:         pool,
	}
	if profile.Burstiness > 1 && s.bitsPerCycle > 0 {
		burstCycles := profile.BurstCycles
		if burstCycles == 0 {
			burstCycles = 256
		}
		// Duty cycle d = 1/burstiness keeps the long-run average at the
		// nominal rate; mean OFF length = burstCycles*(1-d)/d.
		duty := 1 / profile.Burstiness
		s.bursty = true
		s.burstRate = s.bitsPerCycle * profile.Burstiness
		s.pOnToOff = 1 / float64(burstCycles)
		s.pOffToOn = duty / ((1 - duty) * float64(burstCycles))
		s.on = s.rng.Bernoulli(duty)
	}
	return s, nil
}

// OfferedBitsPerCycle returns the source's scaled injection rate.
func (s *Source) OfferedBitsPerCycle() float64 { return s.bitsPerCycle }

// Idle reports whether the source can never emit a packet. Its Tick is
// then a pure no-op (zero credit accrues and the RNG is untouched —
// bursty state only exists for positive rates), so the fabric may skip
// it without perturbing determinism.
func (s *Source) Idle() bool { return s.bitsPerCycle == 0 }

// Tick advances one cycle and returns a newly generated packet, or nil.
// At most one packet is generated per cycle; surplus credit carries over,
// so the long-run rate matches the profile even if it briefly exceeds one
// packet per cycle.
func (s *Source) Tick(now sim.Cycle, topo topology.Topology) *packet.Packet {
	if s.bursty {
		if s.on {
			s.credit += s.burstRate
			if s.rng.Bernoulli(s.pOnToOff) {
				s.on = false
			}
		} else if s.rng.Bernoulli(s.pOffToOn) {
			s.on = true
		}
	} else {
		s.credit += s.bitsPerCycle
	}
	bits := float64(s.format.Bits())
	if s.credit < bits {
		return nil
	}
	s.credit -= bits

	dst := s.profile.PickDest(&s.rng)
	*s.nextMessage++
	*s.nextPacket++
	p := s.pool.Get()
	*p = packet.Packet{
		ID:         *s.nextPacket,
		Message:    *s.nextMessage,
		Src:        s.core,
		Dst:        dst,
		SrcCluster: topo.ClusterOf(s.core),
		DstCluster: topo.ClusterOf(dst),
		Flits:      s.format.Flits,
		FlitBits:   s.format.FlitBits,
		Created:    now,
		Born:       now,
		Attempt:    1,
	}
	return p
}

// RetransmitFrom builds a fresh attempt of a dropped packet, preserving
// its logical message identity and birth cycle (§1.4: "the source will
// have to retransmit"). The new attempt is drawn from pool. The original
// p is still intact afterwards; the caller decides when to recycle it.
func RetransmitFrom(pool *packet.Pool, p *packet.Packet, now sim.Cycle, packetIDs *packet.ID) *packet.Packet {
	*packetIDs++
	retry := pool.Get()
	*retry = packet.Packet{
		ID:         *packetIDs,
		Message:    p.Message,
		Src:        p.Src,
		Dst:        p.Dst,
		SrcCluster: p.SrcCluster,
		DstCluster: p.DstCluster,
		Flits:      p.Flits,
		FlitBits:   p.FlitBits,
		Created:    now,
		Born:       p.Born,
		Attempt:    p.Attempt + 1,
	}
	return retry
}
