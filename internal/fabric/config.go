// Package fabric assembles the complete chip: traffic sources, the
// intra-cluster electrical network, the photonic routers, the R-SWMR
// crossbar engines and the wavelength allocation policy, and runs the
// cycle-accurate simulation loop. One fabric type realizes both evaluated
// architectures — the crossbar-based Firefly baseline and d-HetPNoC — via
// the allocation policy and demodulator gating mode, matching the thesis's
// observation that under uniform traffic "they are practically the same
// architecture" (§3.4.1.2).
package fabric

import (
	"fmt"
	"unsafe"

	"hetpnoc/internal/core"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/traffic"
)

// Arch selects the evaluated architecture.
type Arch int

// Architectures.
const (
	// Firefly is the baseline: uniform static wavelength allocation,
	// full-channel demodulator gating (§2.2.1).
	Firefly Arch = iota + 1
	// DHetPNoC is the proposed architecture: token-passing dynamic
	// bandwidth allocation with selective demodulator gating (Ch. 3).
	DHetPNoC
	// TorusPNoC is the related-work baseline of §2.1.3 [15]: a
	// circuit-switched photonic 2D folded torus with PSE-based blocking
	// routers and an electronic path-setup network.
	TorusPNoC
)

// String returns the architecture name.
func (a Arch) String() string {
	switch a {
	case Firefly:
		return "firefly"
	case DHetPNoC:
		return "d-hetpnoc"
	case TorusPNoC:
		return "torus-pnoc"
	default:
		return "unknown"
	}
}

// IntraCluster selects the electrical network inside each cluster.
type IntraCluster int

// Intra-cluster topologies.
const (
	// AllToAll wires the cluster's cores pairwise and each to the
	// photonic router — the d-HetPNoC configuration of §3.1.
	AllToAll IntraCluster = iota + 1
	// Concentrated shares a single electrical switch among the
	// cluster's cores, as in Firefly's concentrated nodes [20].
	Concentrated
)

// String returns the topology name.
func (t IntraCluster) String() string {
	switch t {
	case AllToAll:
		return "all-to-all"
	case Concentrated:
		return "concentrated"
	default:
		return "unknown"
	}
}

// Remap schedules a mid-run change of the task mapping: at cycle At the
// workload is re-assigned from Pattern and every core re-reports its
// demand table, exercising the DBA reconfiguration path (§3.2). At must
// lie inside the run: 0 <= At < Cycles.
type Remap struct {
	At      sim.Cycle
	Pattern traffic.Pattern
}

// Config parameterizes one simulation run on the chip of Table 3-3.
// Zero fields are filled with the Table 3-3 defaults by WithDefaults.
type Config struct {
	Set     traffic.BandwidthSet
	Arch    Arch
	Pattern traffic.Pattern

	// LoadScale multiplies every source's offered rate; the peak
	// bandwidth experiments sweep it to find network saturation.
	LoadScale float64

	// Cycles is the total simulated length; WarmupCycles at the start
	// are excluded from measurements (Table 3-3: 10,000 and 1,000).
	Cycles       int
	WarmupCycles int

	Seed uint64

	// VCsPerPort is the router provisioning (Table 3-3: 16 VCs/port,
	// each bufferDepthFlits deep).
	VCsPerPort int

	// SourceQueueLimit bounds each core's injection queue; packets
	// offered beyond it are rejected (standard saturation-measurement
	// practice).
	SourceQueueLimit int

	IntraCluster IntraCluster

	// ReservedPerCluster is the DBA minimum guarantee (d-HetPNoC only).
	ReservedPerCluster int

	// MaxAcquirePerVisit bounds the DBA's per-token-visit acquisition
	// (d-HetPNoC only; 0 = the allocator default).
	MaxAcquirePerVisit int

	// ProportionalDBA selects the demand-proportional allocation policy
	// instead of the thesis's greedy §3.2.1 rule (d-HetPNoC only) — the
	// repository's take on the thesis's stated future work.
	ProportionalDBA bool

	// WaveguidesPerCluster enables the thesis's Chapter 4 area
	// mitigation: restrict each photonic router's modulators to this
	// many waveguides starting at its home waveguide (d-HetPNoC only;
	// 0 = unrestricted).
	WaveguidesPerCluster int

	// DisableReservationPipelining serializes reservations behind data
	// transfers, for the ablation study.
	DisableReservationPipelining bool

	// EventCapacity, when positive, enables the protocol event log with
	// that retention bound (most recent events kept).
	EventCapacity int

	// ProbeEvery, when positive, enables the probe: a row of the run's
	// state at every positive multiple of ProbeEvery cycles (see Probe).
	ProbeEvery int64

	Remaps []Remap
}

// chip is the Table 3-3 topology every fabric builds.
var chip topology.Topology

// The Table 3-3 run defaults. Every layer that fills an unset run
// parameter — WithDefaults here, hetpnoc.Config.Normalized,
// experiments.Options and the CLI flag defaults — reads these, so the
// layers cannot disagree about what an omitted field selects.
const (
	DefaultCycles       = 10000
	DefaultWarmupCycles = 1000
	DefaultSeed         = 1
	DefaultLoadScale    = 1.0
)

// Router and retransmission parameters that no run varies.
const (
	// bufferDepthFlits is each VC's depth (Table 3-3: 64-flit buffers).
	bufferDepthFlits = 64
	// maxRetries is how often a dropped packet is retransmitted before
	// its message is counted lost.
	maxRetries = 8
	// RetryBackoffCycles is the wait before a packet dropped at a
	// receiver with no free VC is retransmitted (§1.4).
	RetryBackoffCycles = 64
)

// WithDefaults returns the config with unset fields filled from Table 3-3
// and the implementation defaults documented in DESIGN.md.
func (c Config) WithDefaults() Config {
	if c.Set.Name == "" {
		c.Set = traffic.BWSet1
	}
	if c.Arch == 0 {
		c.Arch = DHetPNoC
	}
	if c.Pattern == nil {
		c.Pattern = traffic.Uniform{}
	}
	if c.LoadScale == 0 {
		c.LoadScale = DefaultLoadScale
	}
	if c.Cycles == 0 {
		c.Cycles = DefaultCycles
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = DefaultWarmupCycles
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.VCsPerPort == 0 {
		c.VCsPerPort = 16
	}
	if c.SourceQueueLimit == 0 {
		c.SourceQueueLimit = 16
	}
	if c.IntraCluster == 0 {
		c.IntraCluster = AllToAll
	}
	if c.ReservedPerCluster == 0 {
		c.ReservedPerCluster = 1
	}
	return c
}

// maxLoadScale rejects +Inf and absurd scales that would overflow the
// per-cycle injection probabilities.
const maxLoadScale = 1 << 40

// maxProbeBytes bounds the probe, which New preallocates whole, at
// 80 MiB: 2^20 rows of the three columns it first had.
const maxProbeBytes = 80 << 20

// probeRowBytes is the width of one probe row on k clusters: the
// Counters and a λ count (int32) and busy cycles (int64) per cluster.
func probeRowBytes(k int) int64 { return int64(unsafe.Sizeof(Counters{})) + int64(k)*(4+8) }

// checkLoad is the one rule for an offered-load multiplier, shared by
// Validate and SetLoadScale so a solo run and a batch fork refuse the
// same scales: the scale lies in [0, 2^40] (the negated form also
// refuses NaN), and every source of the run's pattern and of each
// remap's can hold its rate at that scale as credit.
func (c Config) checkLoad(scale float64) error {
	if !(scale >= 0 && scale <= maxLoadScale) {
		return fmt.Errorf("fabric: load scale %g out of range [0, 2^40]", scale)
	}
	if err := traffic.CheckLoad(c.Pattern, c.Set, scale); err != nil {
		return err
	}
	for _, r := range c.Remaps {
		if err := traffic.CheckLoad(r.Pattern, c.Set, scale); err != nil {
			return err
		}
	}
	return nil
}

// Validate reports the first configuration error. Set is one of
// traffic's three sets, which nothing re-checks.
func (c Config) Validate() error {
	if c.Arch != Firefly && c.Arch != DHetPNoC && c.Arch != TorusPNoC {
		return fmt.Errorf("fabric: unknown architecture %d", c.Arch)
	}
	if c.Pattern == nil {
		return fmt.Errorf("fabric: no traffic pattern")
	}
	if err := c.checkLoad(c.LoadScale); err != nil {
		return err
	}
	if c.Cycles <= 0 || c.WarmupCycles < 0 || c.WarmupCycles >= c.Cycles {
		return fmt.Errorf("fabric: cycles %d / warm-up %d invalid", c.Cycles, c.WarmupCycles)
	}
	if c.VCsPerPort <= 0 || c.VCsPerPort > router.MaxVCsPerPort {
		return fmt.Errorf("fabric: VC count %d outside [1, %d]", c.VCsPerPort, router.MaxVCsPerPort)
	}
	if c.SourceQueueLimit <= 0 {
		return fmt.Errorf("fabric: source queue limit must be positive")
	}
	if c.IntraCluster != AllToAll && c.IntraCluster != Concentrated {
		return fmt.Errorf("fabric: unknown intra-cluster topology %d", c.IntraCluster)
	}
	if maxRows := maxProbeBytes / probeRowBytes(chip.Clusters()); c.ProbeEvery < 0 || c.ProbeEvery > 0 && int64(c.Cycles)/c.ProbeEvery > maxRows {
		return fmt.Errorf("fabric: probe interval %d invalid for %d cycles: negative, or over %d rows", c.ProbeEvery, c.Cycles, maxRows)
	}
	for _, r := range c.Remaps {
		if r.Pattern == nil {
			return fmt.Errorf("fabric: remap at cycle %d has no pattern", r.At)
		}
		if r.At < 0 || r.At >= sim.Cycle(c.Cycles) {
			return fmt.Errorf("fabric: remap at cycle %d is outside the run's %d cycles", r.At, c.Cycles)
		}
	}
	if c.Arch != DHetPNoC {
		return nil // the DBA knobs configure d-HetPNoC's allocator only
	}
	bundle, err := photonic.NewBundle(c.Set.TotalWavelengths)
	if err != nil {
		return err
	}
	return c.dbaConfig(bundle).Check()
}

// dbaConfig is d-HetPNoC's token allocator configuration for c, on
// bundle, without its ledger and event log.
func (c Config) dbaConfig(bundle photonic.WaveguideBundle) core.Config {
	policy := core.PolicyGreedy
	if c.ProportionalDBA {
		policy = core.PolicyProportional
	}
	return core.Config{
		Policy:                policy,
		Bundle:                bundle,
		TotalWavelengths:      c.Set.TotalWavelengths,
		ReservedPerCluster:    c.ReservedPerCluster,
		MaxChannelWavelengths: c.Set.MaxChannelWavelengths(),
		MaxAcquirePerVisit:    c.MaxAcquirePerVisit,
		WaveguidesPerCluster:  c.WaveguidesPerCluster,
		ClockHz:               sim.ClockHz,
	}
}
