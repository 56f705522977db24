package traffic

import (
	"fmt"
	"math"

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
// A constant-rate source does not pay for the cycles in between: each
// emission replays the per-cycle additions up to the next one at once
// (advanceCredit) and Tick returns nil until that cycle. A bursty source
// draws one Bernoulli per cycle and so is ticked through every cycle.
//
// A Source is a plain value that owns its RNG stream: everything it
// mutates (credit, next emission, burst phase, RNG) is held by value and
// everything it points at is shared with its owner, so assigning one
// Source to another is a complete checkpoint or restore of it.
type Source struct {
	core    topology.CoreID
	profile CoreProfile
	format  packet.Format
	rng     sim.RNG

	bitsPerCycle float64

	// nextEmit is the first cycle whose Tick does anything. For a
	// constant-rate source it is the cycle of the next packet (never when
	// the credit has stopped growing) and credit is what the per-cycle
	// additions will have reached there; for a bursty source it stays at
	// the cycle the source was built for and credit is the running sum.
	nextEmit sim.Cycle
	credit   float64

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
// drawing its randomness from rng and its packets from pool. start is
// the first cycle the source will be ticked: credit accrues from there.
// messageIDs and packetIDs are shared run-wide counters so every packet
// in a run gets a unique identity.
func NewSource(core topology.CoreID, profile CoreProfile, format packet.Format, clock sim.Clock,
	loadScale float64, start sim.Cycle, rng sim.RNG, pool *packet.Pool, messageIDs *packet.MessageID, packetIDs *packet.ID) (Source, error) {
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
		nextEmit:     start,
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
	} else {
		s.nextEmit, s.credit = advanceCredit(start, 0, s.bitsPerCycle, float64(format.Bits()))
	}
	return s, nil
}

// never is the next emission of a source whose credit has stopped
// growing short of a packet.
const never = sim.Cycle(math.MaxInt64)

// advanceCredit replays the loop "credit += perCycle once per cycle from
// cycle from on, until credit is a full packet" and returns the cycle it
// stops on and the credit reached there — bit for bit what the loop
// computes, without running it. It returns never when the sum stops
// growing first (perCycle is zero, or below half an ulp of the credit).
//
// The additions round, so n of them are not one multiplication. But
// between two powers of two every float64 is a multiple of one ulp and
// consecutive ones differ by one in their bit patterns, so a sum that
// stays inside the binade moves by a whole number of ulps: perCycle
// rounded to the ulp, the same number every time unless perCycle lies
// exactly halfway, where ties-to-even picks by the credit's parity and
// leaves an even credit behind — from which the step repeats too. So of
// the sums inside one binade the first may start from an odd credit,
// the second starts from an even one if there are ties, and the step it
// takes is the step of all further ones: the rest of the binade is an
// integer division on the bit patterns. The additions that enter a
// binade, leave it or reach the packet are made for real.
func advanceCredit(from sim.Cycle, credit, perCycle, bits float64) (sim.Cycle, float64) {
	const exponent = 52 // a positive float64's bit pattern, shifted right by this, names its binade
	inBinade := 0       // consecutive sums so far that stayed in credit's binade
	for at := from; ; at++ {
		sum := credit + perCycle
		if !(sum < bits) { // as Tick's own test: a NaN credit emits
			return at, sum
		}
		if !(sum > credit) {
			return never, credit
		}
		was, is := math.Float64bits(credit), math.Float64bits(sum)
		credit = sum
		if was>>exponent != is>>exponent {
			inBinade = 0
			continue
		}
		if inBinade++; inBinade < 2 {
			continue
		}
		// Take every further step that stays below both the packet and
		// the next binade; the addition after them crosses one of the two.
		step := is - was
		limit := min(math.Float64bits(bits), (is>>exponent+1)<<exponent)
		steps := (limit - is - 1) / step
		credit = math.Float64frombits(is + steps*step)
		at += sim.Cycle(steps)
		inBinade = 0
	}
}

// NextEmission returns the first cycle at which Tick does anything: the
// cycle of a constant-rate source's next packet, and a cycle no later
// than now for a bursty source, whose every Tick draws from its RNG. A
// fabric whose sources all answer a later cycle may skip their Ticks, or
// the cycles, until then.
func (s *Source) NextEmission() sim.Cycle { return s.nextEmit }

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
// packet per cycle. Ticks before NextEmission return nil and may be
// left out; from there on every cycle must be ticked, in order.
func (s *Source) Tick(now sim.Cycle, topo topology.Topology) *packet.Packet {
	if now < s.nextEmit {
		return nil
	}
	bits := float64(s.format.Bits())
	if s.bursty {
		if s.on {
			s.credit += s.burstRate
			if s.rng.Bernoulli(s.pOnToOff) {
				s.on = false
			}
		} else if s.rng.Bernoulli(s.pOffToOn) {
			s.on = true
		}
		if s.credit < bits {
			return nil
		}
		s.credit -= bits
	} else {
		s.nextEmit, s.credit = advanceCredit(now+1, s.credit-bits, s.bitsPerCycle, bits)
	}

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
