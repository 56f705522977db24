package fabric

import (
	"hetpnoc/internal/event"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/stats"
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

	// Counters is the run's row at its last cycle, read by the same
	// gather as the probe's rows: a run whose length is a multiple of
	// Config.ProbeEvery ends on a probe row equal to it.
	Counters

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

	// ChannelBusyFraction is each write channel's busy share of the
	// cycles run (crossbar architectures only).
	ChannelBusyFraction []float64

	// Events is the retained protocol event log when Config.EventCapacity
	// enabled it — non-nil, possibly empty — and nil otherwise.
	Events []event.Event

	// Probe holds the rows sampled so far when Config.ProbeEvery enabled
	// the probe, and is nil otherwise; it shares nothing with the fabric.
	Probe *Probe
}

// result assembles the Result after Run completes: the last row and the
// collector's read-out of the window, with the ratios and the priced
// energy computed from them.
func (f *Fabric) result() Result {
	summary := f.collector.Summary()

	var offered float64
	for _, core := range f.assignment.Cores {
		bitsPerCycle := sim.GbpsToBitsPerCycle(core.RateGbps * f.loadScale)
		offered += sim.BitsPerCycleToGbps(bitsPerCycle)
	}

	res := Result{
		Arch:                 f.cfg.Arch.String(),
		Pattern:              f.cfg.Pattern.Name(),
		Set:                  f.cfg.Set.Name,
		IntraCluster:         f.cfg.IntraCluster.String(),
		LoadScale:            f.loadScale,
		Seed:                 f.seed,
		Stats:                summary,
		OfferedGbps:          units.Gbps(offered),
		PerCoreGbps:          summary.DeliveredGbps.Div(float64(chip.Cores())),
		AllocatedWavelengths: make([]int, chip.Clusters()),
		ChannelBusyFraction:  make([]float64, len(f.txs)),
		EnergyBreakdownPJ:    make(map[string]units.Picojoule),
		Events:               f.events.Events(),
	}
	gather(f, &res.Counters, res.AllocatedWavelengths, res.ChannelBusyFraction)
	for i, busy := range res.ChannelBusyFraction {
		if busy > 0 { // a fabric finished at cycle 0 reports 0, not 0/0
			res.ChannelBusyFraction[i] = busy / float64(res.Cycle)
		}
	}
	energy := photonic.DefaultEnergyParams().Price(res.EnergyCounts)
	res.EnergyPerMessagePJ = energy.PerMessage(summary.PacketsDelivered)
	res.EnergyTotalPJ, res.EnergyPhotonicPJ, res.EnergyElectricalPJ = energy.TotalPJ, energy.PhotonicPJ, energy.ElectricalPJ
	for _, comp := range photonic.Components() {
		res.EnergyBreakdownPJ[comp.String()] = energy.ByComponent[comp]
	}
	if every := f.cfg.ProbeEvery; every > 0 {
		res.Probe = f.probe.clone(min(int(int64(f.now)/every), len(f.probe.Rows)))
	}
	return res
}
