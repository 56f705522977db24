package traffic

import (
	"fmt"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// CoreProfile describes the workload mapped onto one core: the rate at
// which it offers traffic, the bandwidth class of its application (which
// drives the DBA demand tables), and how it picks destinations.
type CoreProfile struct {
	// RateGbps is the offered injection rate of this core before the
	// experiment's load scaling is applied.
	RateGbps float64

	// DemandGbps is the bandwidth class of the application running on
	// the core. The photonic router's demand table entry toward each
	// destination cluster is WavelengthsFor(DemandGbps). The thesis maps
	// one application per cluster, so the four cores of a cluster share
	// one class and each injects a quarter of its bandwidth.
	DemandGbps float64

	// PickDest samples a destination core. The thesis's evaluation
	// patterns only generate inter-cluster traffic (core-to-memory style
	// flows); custom assignments may also target cores in the source's
	// own cluster, which travel the intra-cluster electrical network
	// without touching the photonic crossbar (§3.3). The destination
	// must never be the source core itself.
	PickDest func(rng *sim.RNG) topology.CoreID

	// DemandDests, when non-nil, restricts the clusters this core's
	// demand-table entries cover (e.g. GPU cores only demand bandwidth
	// toward memory clusters in the real-application scenario). Nil
	// means every foreign cluster.
	DemandDests []topology.ClusterID

	// Burstiness makes the source an on/off Markov process instead of a
	// constant-rate one: during ON periods it injects at
	// Burstiness x RateGbps; OFF periods are sized so the long-run
	// average stays RateGbps. 0 or 1 means constant-rate injection.
	// Mean burst length is meanBurstCycles when bursty.
	Burstiness float64
}

// DemandTable fills table, one entry per cluster, with the
// per-destination wavelength demand the core reports to its photonic
// router (§3.2.1).
func (p CoreProfile) DemandTable(table []int, self topology.ClusterID) {
	need := WavelengthsFor(p.DemandGbps)
	if p.DemandDests != nil {
		clear(table)
		for _, d := range p.DemandDests {
			table[d] = need
		}
	} else {
		for d := range table {
			table[d] = need
		}
	}
	table[self] = 0
}

// Assignment is a full workload mapping: one profile per core.
type Assignment struct {
	Name  string
	Cores []CoreProfile
}

// Pattern generates an Assignment for the chip. Patterns are pure
// descriptions: an assignment depends only on the pattern and the
// bandwidth set, and the randomness of a run is drawn by its sources'
// destination samplers.
type Pattern interface {
	// Name identifies the pattern in results ("uniform", "skewed3", ...).
	Name() string

	// Assign maps the workload onto the chip.
	Assign(set BandwidthSet) (Assignment, error)
}

// chip is the Table 3-3 topology every workload maps onto.
var chip topology.Topology

// uniformDest returns a destination sampler drawing uniformly from all
// cores outside the source cluster.
func uniformDest(src topology.ClusterID) func(*sim.RNG) topology.CoreID {
	return func(rng *sim.RNG) topology.CoreID {
		for {
			dst := topology.CoreID(rng.Intn(chip.Cores()))
			if chip.ClusterOf(dst) != src {
				return dst
			}
		}
	}
}

// Uniform is the uniform-random pattern: "all communication requires the
// same uniform bandwidth and all cores communicate with all other cores
// with equal data rate" (§3.4.1). Every core offers an equal share of the
// aggregate photonic bandwidth, so both architectures configure
// identically: Firefly's static allocation is exactly what DBA converges
// to.
type Uniform struct{}

// Name implements Pattern.
func (Uniform) Name() string { return "uniform" }

// Assign implements Pattern.
func (Uniform) Assign(set BandwidthSet) (Assignment, error) {
	perCore := fairShare(set)
	perCluster := perCore * float64(chip.ClusterSize())

	cores := make([]CoreProfile, chip.Cores())
	for c := range cores {
		src := chip.ClusterOf(topology.CoreID(c))
		cores[c] = CoreProfile{
			RateGbps:   perCore,
			DemandGbps: perCluster,
			PickDest:   uniformDest(src),
		}
	}
	return Assignment{Name: "uniform", Cores: cores}, nil
}

// fairShare is each core's equal share of the set's aggregate photonic
// bandwidth, in Gb/s.
func fairShare(set BandwidthSet) float64 {
	return float64(set.TotalWavelengths) * 12.5 / float64(chip.Cores())
}

// Bursty wraps a pattern so every core injects through an on/off Markov
// process with the given burstiness factor (peak rate = burstiness x
// nominal; duty cycle = 1/burstiness), preserving each core's average
// rate. Burstiness <= 1 leaves the pattern unchanged.
type Bursty struct {
	Base Pattern
	// Factor is the peak-to-average ratio during bursts.
	Factor float64
}

// Name implements Pattern.
func (b Bursty) Name() string {
	return fmt.Sprintf("%s-bursty%g", b.Base.Name(), b.Factor)
}

// Assign implements Pattern.
func (b Bursty) Assign(set BandwidthSet) (Assignment, error) {
	if b.Base == nil {
		return Assignment{}, fmt.Errorf("traffic: bursty wrapper needs a base pattern")
	}
	if b.Factor < 0 {
		return Assignment{}, fmt.Errorf("traffic: negative burstiness %g", b.Factor)
	}
	a, err := b.Base.Assign(set)
	if err != nil {
		return Assignment{}, err
	}
	a.Name = b.Name()
	for i := range a.Cores {
		a.Cores[i].Burstiness = b.Factor
	}
	return a, nil
}

// Custom is a per-core workload given as data, the public API's custom
// traffic. It holds no closure — Assign builds the destination samplers
// — so two equal Custom patterns compare equal and the batch engine can
// share one fabric build between them.
type Custom struct {
	Cores []CustomCore
}

// CustomCore is one core's share of a Custom workload.
type CustomCore struct {
	RateGbps   float64
	DemandGbps float64
	// Dests lists the destination cores, sampled uniformly; empty means
	// every core outside the source's cluster.
	Dests []topology.CoreID
}

// Name implements Pattern.
func (Custom) Name() string { return "custom" }

// Assign implements Pattern. A core with no rate gets no sampler; a core
// with a destination list demands bandwidth only toward its destinations'
// clusters (DemandTable skips the core's own and tolerates repeats).
func (c Custom) Assign(BandwidthSet) (Assignment, error) {
	if len(c.Cores) != chip.Cores() {
		return Assignment{}, fmt.Errorf("traffic: custom workload has %d cores, topology has %d", len(c.Cores), chip.Cores())
	}
	cores := make([]CoreProfile, len(c.Cores))
	for i, cc := range c.Cores {
		p := CoreProfile{RateGbps: cc.RateGbps, DemandGbps: cc.DemandGbps}
		if dests := cc.Dests; cc.RateGbps > 0 && len(dests) > 0 {
			p.PickDest = func(rng *sim.RNG) topology.CoreID { return dests[rng.Intn(len(dests))] }
			p.DemandDests = make([]topology.ClusterID, len(dests))
			for j, d := range dests {
				p.DemandDests[j] = chip.ClusterOf(d)
			}
		} else if cc.RateGbps > 0 {
			p.PickDest = uniformDest(chip.ClusterOf(topology.CoreID(i)))
		}
		cores[i] = p
	}
	return Assignment{Name: "custom", Cores: cores}, nil
}

// CheckLoad refuses a load scale at which a source p assigns could not
// hold its rate as credit (CreditRates), without assigning p. A custom
// workload lists its rates; a built-in pattern's lightest and heaviest
// per-core rates follow from the bandwidth set, and credit is monotone
// in the rate, so those two bound every source. The check walks at most
// one entry per core and allocates nothing unless it fails. A pattern of
// another type, and a real-app workload's lightest rate, are checked
// when the pattern is assigned.
func CheckLoad(p Pattern, set BandwidthSet, loadScale float64) error {
	b, bursty := p.(Bursty)
	if bursty {
		p = b.Base
	}
	check := func(core int, profile CoreProfile) error {
		if bursty {
			profile.Burstiness = b.Factor
		}
		_, _, err := CreditRates(topology.CoreID(core), profile, loadScale)
		return err
	}
	perCore := func(rates ...float64) error {
		for _, r := range rates {
			if err := check(0, CoreProfile{RateGbps: r}); err != nil {
				return err
			}
		}
		return nil
	}
	size := float64(chip.ClusterSize())
	switch p := p.(type) {
	case Uniform, Permutation:
		return perCore(fairShare(set))
	case Skewed, SkewedHotspot:
		return perCore(set.ClassGbps[0]/size, set.ClassGbps[len(set.ClassGbps)-1]/size)
	case RealApp:
		return perCore(set.ClassGbps[0] / size)
	case Custom:
		for i, cc := range p.Cores {
			if err := check(i, CoreProfile{RateGbps: cc.RateGbps}); err != nil {
				return err
			}
		}
	}
	return nil
}
