package fabric

import (
	"slices"

	"hetpnoc/internal/event"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/stats"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/units"
)

// Result is the outcome of one simulation run.
type Result struct {
	Arch         string
	Pattern      string
	Set          string
	IntraCluster string
	LoadScale    float64
	Seed         uint64

	Stats stats.Summary

	// OfferedGbps is the aggregate scaled injection rate.
	OfferedGbps units.Gbps

	// PerCoreGbps is the delivered bandwidth averaged over cores (the
	// "peak core bandwidth" axis of Figures 3-5, 3-7 and 3-10 once
	// maximized over the load sweep).
	PerCoreGbps units.Gbps

	// EnergyCounts is the ledger's exact per-component tally of the
	// measurement window; EnergyParams.Price re-prices it under any
	// energy constants.
	EnergyCounts photonic.Counts

	// EnergyPerMessagePJ is the total dissipated energy divided by
	// delivered packets — "the energy dissipated in transferring one
	// packet completely from source to destination at network
	// saturation" (§3.4.1.2). It and the other Energy*PJ fields are
	// EnergyCounts priced at photonic.DefaultEnergyParams.
	EnergyPerMessagePJ units.Picojoule

	EnergyTotalPJ      units.Picojoule
	EnergyPhotonicPJ   units.Picojoule
	EnergyElectricalPJ units.Picojoule
	EnergyBreakdownPJ  map[string]units.Picojoule

	// AllocatedWavelengths is the final per-cluster allocation.
	AllocatedWavelengths []int

	// TokenRotations counts completed DBA token rotations (0 for
	// Firefly).
	TokenRotations int64

	// ChannelBusyFraction is each write channel's busy share of the full
	// run (crossbar architectures only).
	ChannelBusyFraction []float64

	// TorusPathsSetUp and TorusSetupsBlocked count circuit
	// establishments and blocked setups (torus baseline only).
	TorusPathsSetUp    int64
	TorusSetupsBlocked int64

	// Events is the retained protocol event log when Config.EventCapacity
	// enabled it — non-nil, possibly empty — and nil otherwise.
	Events []event.Event

	// Probe holds the rows sampled so far when Config.ProbeEvery enabled
	// the probe, and is nil otherwise; it shares nothing with the fabric.
	Probe *Probe

	// Totals are the whole-run packet counters, warm-up included.
	Totals Totals
}

// result assembles the Result after Run completes.
func (f *Fabric) result() Result {
	summary := f.collector.Summary()

	var offered float64
	for _, core := range f.assignment.Cores {
		bitsPerCycle := f.clock.GbpsToBitsPerCycle(core.RateGbps * f.cfg.LoadScale)
		offered += f.clock.BitsPerCycleToGbps(bitsPerCycle)
	}

	energy := f.ledger.Energy()
	res := Result{
		Arch:               f.cfg.Arch.String(),
		Pattern:            f.cfg.Pattern.Name(),
		Set:                f.cfg.Set.Name,
		IntraCluster:       f.cfg.IntraCluster.String(),
		LoadScale:          f.cfg.LoadScale,
		Seed:               f.seed,
		Stats:              summary,
		OfferedGbps:        units.Gbps(offered),
		EnergyCounts:       f.ledger.Counts(),
		EnergyPerMessagePJ: energy.PerMessage(summary.PacketsDelivered),
		EnergyTotalPJ:      energy.TotalPJ,
		EnergyPhotonicPJ:   energy.PhotonicPJ,
		EnergyElectricalPJ: energy.ElectricalPJ,
		EnergyBreakdownPJ:  make(map[string]units.Picojoule),
		Events:             f.events.Events(),
		Totals:             f.collector.Totals(),
	}
	if every := f.cfg.ProbeEvery; every > 0 {
		p, n := &f.probe, min(int(int64(f.now)/every), len(f.probe.TokenRotations))
		res.Probe = &Probe{p.Clusters, slices.Clone(p.AllocatedWavelengths[:n*p.Clusters]),
			slices.Clone(p.TokenRotations[:n]), slices.Clone(p.PacketsDelivered[:n])}
	}
	for _, comp := range photonic.Components() {
		res.EnergyBreakdownPJ[comp.String()] = energy.ByComponent[comp]
	}
	res.PerCoreGbps = summary.DeliveredGbps.Div(float64(f.cfg.Topology.Cores()))

	res.AllocatedWavelengths = make([]int, f.cfg.Topology.Clusters())
	for cl := range res.AllocatedWavelengths {
		res.AllocatedWavelengths[cl] = len(f.alloc.Allocated(topology.ClusterID(cl)))
	}
	if f.dba != nil {
		res.TokenRotations = f.dba.Rotations()
	}
	res.ChannelBusyFraction = make([]float64, len(f.txs))
	for i, tx := range f.txs {
		res.ChannelBusyFraction[i] = float64(tx.BusyCycles()) / float64(f.cfg.Cycles)
	}
	if f.torus != nil {
		res.TorusPathsSetUp = f.torus.PathsSetUp()
		res.TorusSetupsBlocked = f.torus.SetupsBlocked()
	}
	return res
}
