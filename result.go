package hetpnoc

import (
	"hetpnoc/internal/area"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/gpgpu"
	"hetpnoc/internal/units"
)

// Result carries the measurements of one simulation run, taken over the
// post-warm-up window.
type Result struct {
	Architecture string
	Traffic      string
	BandwidthSet string
	LoadScale    float64

	// DeliveredGbps is the aggregate rate of bits successfully arriving
	// at all cores — the thesis's bandwidth metric (§3.4.1.1).
	DeliveredGbps units.Gbps
	// PerCoreGbps is DeliveredGbps averaged over cores.
	PerCoreGbps units.Gbps
	// OfferedGbps is the aggregate scaled injection rate.
	OfferedGbps units.Gbps

	// EnergyPerMessagePJ is total dissipated energy per delivered packet
	// (§3.4.1.2).
	EnergyPerMessagePJ units.Picojoule
	EnergyTotalPJ      units.Picojoule
	EnergyPhotonicPJ   units.Picojoule
	EnergyElectricalPJ units.Picojoule
	// EnergyBreakdownPJ maps component names (launch, modulation,
	// tuning, buffer, buffer-residency, router, wire-link,
	// idle-detector) to their totals.
	EnergyBreakdownPJ map[string]units.Picojoule

	PacketsInjected  int64
	PacketsDelivered int64
	PacketsDroppedRX int64
	PacketsRejected  int64
	PacketsLost      int64
	Retransmissions  int64

	AvgLatencyCycles float64
	P50LatencyCycles int64
	P99LatencyCycles int64
	MaxLatencyCycles int64

	// FairnessJain is Jain's fairness index over the clusters' delivered
	// bits: 1.0 = perfectly even, 1/16 = one cluster got everything.
	FairnessJain float64

	// AllocatedWavelengths is the final per-cluster write-channel
	// allocation (uniform for Firefly; demand-shaped for d-HetPNoC).
	AllocatedWavelengths []int
	// TokenRotations counts completed DBA token rotations (0 for
	// Firefly).
	TokenRotations int64
	// ChannelBusyFraction is each write channel's busy share of the run.
	ChannelBusyFraction []float64

	// TorusPathsSetUp and TorusSetupsBlocked count circuit
	// establishments and blocked path setups (torus baseline only).
	TorusPathsSetUp    int64
	TorusSetupsBlocked int64

	// Events carries the most recent protocol events, formatted one per
	// line, when Config.EventCapacity was set.
	Events []string

	// Probe carries the run's sampled trace when Config.ProbeEvery was
	// set.
	Probe *Probe `json:",omitempty"`
}

// Probe is a run's sampled trace: row i is the run at cycle
// (i+1)*Config.ProbeEvery, Rows holding its counters and each other
// column Clusters entries of it. It has fabric.Probe's layout.
type Probe fabric.Probe

// fromFabricResult lifts a finished run into the public Result.
// Result.Events is nil exactly when the config left the event log off,
// and non-nil (possibly empty) otherwise; Result.Probe is nil exactly
// when it left the probe off.
func fromFabricResult(r fabric.Result) Result {
	out := Result{
		Architecture:         r.Arch,
		Traffic:              r.Pattern,
		BandwidthSet:         r.Set,
		LoadScale:            r.LoadScale,
		DeliveredGbps:        r.Stats.DeliveredGbps,
		PerCoreGbps:          r.PerCoreGbps,
		OfferedGbps:          r.OfferedGbps,
		EnergyPerMessagePJ:   r.EnergyPerMessagePJ,
		EnergyTotalPJ:        r.EnergyTotalPJ,
		EnergyPhotonicPJ:     r.EnergyPhotonicPJ,
		EnergyElectricalPJ:   r.EnergyElectricalPJ,
		EnergyBreakdownPJ:    r.EnergyBreakdownPJ,
		PacketsInjected:      r.Stats.PacketsInjected,
		PacketsDelivered:     r.Stats.PacketsDelivered,
		PacketsDroppedRX:     r.Stats.PacketsDroppedRX,
		PacketsRejected:      r.Stats.PacketsRejected,
		PacketsLost:          r.Stats.PacketsLost,
		Retransmissions:      r.Stats.Retransmissions,
		AvgLatencyCycles:     r.Stats.AvgLatencyCycles,
		P50LatencyCycles:     int64(r.Stats.P50LatencyCycles),
		P99LatencyCycles:     int64(r.Stats.P99LatencyCycles),
		MaxLatencyCycles:     int64(r.Stats.MaxLatencyCycles),
		FairnessJain:         r.Stats.FairnessJain,
		AllocatedWavelengths: r.AllocatedWavelengths,
		TokenRotations:       r.TokenRotations,
		ChannelBusyFraction:  r.ChannelBusyFraction,
		TorusPathsSetUp:      r.TorusPathsSetUp,
		TorusSetupsBlocked:   r.TorusSetupsBlocked,
		Probe:                (*Probe)(r.Probe),
	}
	if r.Events != nil {
		out.Events = make([]string, len(r.Events))
		for i, e := range r.Events {
			out.Events[i] = e.String()
		}
	}
	return out
}

// AreaEstimate is the analytic electro-optic area model of §3.4.3 for one
// aggregate-bandwidth point.
type AreaEstimate struct {
	DataWavelengths    int
	DHetPNoCAreaMM2    units.SquareMillimeter
	FireflyAreaMM2     units.SquareMillimeter
	OverheadPct        float64
	DHetPNoCModulators int
	DHetPNoCDetectors  int
	FireflyModulators  int
	FireflyDetectors   int
}

// EstimateArea evaluates the §3.4.3 analytic area model (Equations 5-24)
// for a 64-core, 16-cluster chip with the given total data wavelengths.
func EstimateArea(dataWavelengths int) (AreaEstimate, error) {
	cfg := area.Config{DataWavelengths: dataWavelengths}
	if err := cfg.Validate(); err != nil {
		return AreaEstimate{}, err
	}
	d := cfg.DynamicAreaMM2()
	f := cfg.FireflyAreaMM2()
	return AreaEstimate{
		DataWavelengths:    dataWavelengths,
		DHetPNoCAreaMM2:    d,
		FireflyAreaMM2:     f,
		OverheadPct:        float64((d - f) / f * 100),
		DHetPNoCModulators: cfg.DynamicModulators(),
		DHetPNoCDetectors:  cfg.DynamicDetectors(),
		FireflyModulators:  cfg.FireflyModulators(),
		FireflyDetectors:   cfg.FireflyDetectors(),
	}, nil
}

// GPUSpeedup is one benchmark's sensitivity to GPU-memory flit size
// (Figure 1-1).
type GPUSpeedup struct {
	Benchmark      string
	Suite          string
	KernelLaunches int
	SpeedupPct     float64
}

// GPUFlitSizeSpeedups evaluates the Figure 1-1 motivation study: per
// benchmark, the speedup of a 1024 B flit size over the 32 B baseline on a
// 700 MHz GPU-memory interconnect.
func GPUFlitSizeSpeedups() ([]GPUSpeedup, error) {
	points, err := gpgpu.Figure1_1()
	if err != nil {
		return nil, err
	}
	out := make([]GPUSpeedup, len(points))
	for i, p := range points {
		out[i] = GPUSpeedup{
			Benchmark:      p.Benchmark,
			Suite:          p.Suite.String(),
			KernelLaunches: p.KernelLaunches,
			SpeedupPct:     p.SpeedupPct,
		}
	}
	return out, nil
}
