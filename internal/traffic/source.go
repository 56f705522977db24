package traffic

import (
	"fmt"
	"math"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/units"
)

// Source turns a CoreProfile into a cycle-by-cycle packet generator. It
// accumulates bandwidth credit every cycle (rate x load scale, as
// units.BitCredit) and emits a packet whenever a full packet's worth has
// accrued, sampling the destination from the profile. Generation is
// deterministic given the RNG stream.
//
// A constant-rate source does not pay for the cycles in between: each
// emission computes the cycle of the next one by a division
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

	perCycle units.BitCredit

	// nextEmit is the first cycle whose Tick does anything. For a
	// constant-rate source it is the cycle of the next packet (never at
	// zero rate) and credit is what the per-cycle additions will have
	// reached there; for a bursty source it stays at the cycle the source
	// was built for and credit is the running sum.
	nextEmit sim.Cycle
	credit   units.BitCredit

	// On/off burst state (Burstiness > 1): during ON the source earns
	// burstiness x perCycle; pOnToOff/pOffToOn are the per-cycle Markov
	// transition probabilities sized for the mean burst length
	// (meanBurstCycles) and the long-run duty cycle 1/burstiness.
	bursty    bool
	burstRate units.BitCredit
	on        bool
	pOnToOff  sim.Chance
	pOffToOn  sim.Chance

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
func NewSource(core topology.CoreID, profile CoreProfile, format packet.Format,
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
	if profile.Burstiness < 0 {
		return Source{}, fmt.Errorf("traffic: core %d has negative burstiness", core)
	}
	perCycle, burstRate, err := CreditRates(core, profile, loadScale)
	if err != nil {
		return Source{}, err
	}
	s := Source{
		core:        core,
		profile:     profile,
		format:      format,
		rng:         rng,
		perCycle:    perCycle,
		burstRate:   burstRate,
		nextEmit:    start,
		nextMessage: messageIDs,
		nextPacket:  packetIDs,
		pool:        pool,
	}
	if profile.Burstiness > 1 && perCycle > 0 {
		// Duty cycle d = 1/burstiness keeps the long-run average at the
		// nominal rate; mean OFF length = meanBurstCycles*(1-d)/d.
		duty := 1 / profile.Burstiness
		s.bursty = true
		s.pOnToOff = sim.ChanceOf(1 / float64(meanBurstCycles))
		s.pOffToOn = sim.ChanceOf(duty / ((1 - duty) * float64(meanBurstCycles)))
		s.on = s.rng.Bernoulli(duty)
	} else {
		s.nextEmit, s.credit = advanceCredit(start, 0, perCycle, units.Bits(format.Bits()))
	}
	return s, nil
}

// CreditRates converts a core's rate at loadScale, and its peak rate when
// bursty, to credit per cycle: a positive rate outside units.CreditOf's
// range is refused.
func CreditRates(core topology.CoreID, profile CoreProfile, loadScale float64) (perCycle, burst units.BitCredit, err error) {
	bitsPerCycle := sim.GbpsToBitsPerCycle(profile.RateGbps * loadScale)
	if perCycle, err = units.CreditOf(bitsPerCycle); err == nil && profile.Burstiness > 1 {
		burst, err = units.CreditOf(bitsPerCycle * profile.Burstiness)
	}
	if err != nil {
		err = fmt.Errorf("traffic: core %d at %g Gb/s x load %g, burstiness %g, per cycle: %w", core, profile.RateGbps, loadScale, profile.Burstiness, err)
	}
	return perCycle, burst, err
}

// meanBurstCycles is the mean ON-period length of a bursty source.
const meanBurstCycles = 256

// never is the next emission of a source that earns no credit.
const never = sim.Cycle(math.MaxInt64)

// advanceCredit returns the first cycle from `from` on in which credit,
// plus perCycle earned in every cycle up to and including it, reaches
// bits, and the credit there; never when perCycle is zero. A credit at
// or above bits is kept at bits: it is only reached when perCycle >=
// bits, where every cycle emits whatever the credit, and so the sum
// stays below 2^63.
func advanceCredit(from sim.Cycle, credit, perCycle, bits units.BitCredit) (sim.Cycle, units.BitCredit) {
	if perCycle == 0 {
		return never, credit
	}
	credit = min(credit, bits)
	n := max(1, (bits-credit+perCycle-1)/perCycle) // cycles of earning, from's included
	return from + sim.Cycle(n-1), credit + n*perCycle
}

// NextEmission returns the first cycle at which Tick does anything: the
// cycle of a constant-rate source's next packet, and a cycle no later
// than now for a bursty source, whose every Tick draws from its RNG. A
// fabric whose sources all answer a later cycle may skip their Ticks, or
// the cycles, until then.
func (s *Source) NextEmission() sim.Cycle { return s.nextEmit }

// Idle reports whether the source can never emit a packet. Its Tick is
// then a pure no-op (zero credit accrues and the RNG is untouched —
// bursty state only exists for positive rates), so the fabric may skip
// it without perturbing determinism.
func (s *Source) Idle() bool { return s.perCycle == 0 }

// Tick advances one cycle and returns a newly generated packet, or nil.
// At most one packet is generated per cycle; surplus credit carries over,
// so the long-run rate matches the profile even if it briefly exceeds one
// packet per cycle. Ticks before NextEmission return nil and may be
// left out; from there on every cycle must be ticked, in order.
func (s *Source) Tick(now sim.Cycle) *packet.Packet {
	if now < s.nextEmit {
		return nil
	}
	bits := units.Bits(s.format.Bits())
	if s.bursty {
		if s.on {
			// The cap, 2^30 bits banked, only keeps the sum from overflowing.
			s.credit = min(s.credit+s.burstRate, units.MaxCredit)
			if s.rng.Draw(s.pOnToOff) {
				s.on = false
			}
		} else if s.rng.Draw(s.pOffToOn) {
			s.on = true
		}
		if s.credit < bits {
			return nil
		}
		s.credit -= bits
	} else {
		s.nextEmit, s.credit = advanceCredit(now+1, s.credit-bits, s.perCycle, bits)
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
		SrcCluster: chip.ClusterOf(s.core),
		DstCluster: chip.ClusterOf(dst),
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
