// Package experiments reproduces every table and figure of the thesis's
// evaluation (§3.4). A simulated figure is a list of fabric configs:
// RunMatrix, the one function here that simulates, runs any list as one
// batch plan and returns one Row per config; the rest build lists and
// read rows without simulating. cmd/sweep joins the lists of everything
// it prints into one and hands each printer its rows.
//
// Experiment index (see DESIGN.md §3 for the full mapping):
//
//	Figure 1-1   — GPU flit-size speedups            (gpgpu.Figure1_1)
//	Figure 3-3   — peak bandwidth matrix             (PeakBandwidth)
//	Figure 3-4   — packet energy matrix              (PeakBandwidth, EPM column)
//	Figure 3-5   — hotspot + real-application cases  (CaseStudies)
//	Figure 3-6   — area vs aggregate bandwidth       (AreaSweep)
//	Figure 3-7   — d-HetPNoC scaling across BW sets  (cmd/sweep's list)
//	Figure 3-8/9 — wavelengths vs BW / EPM / area    (cmd/sweep's list)
//	Figure 3-10  — Firefly scaling across BW sets    (cmd/sweep's list)
//	Extensions   — ablation studies                  (Ablations, LabelAblations)
//	               load-latency curves               (cmd/sweep's list, one config per load)
//	               energy-model sensitivity          (SensitivityRuns, EnergySensitivity)
package experiments

import (
	"context"
	"fmt"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/units"
)

// Options are shared run parameters. The zero value uses the thesis's
// Table 3-3 settings.
type Options struct {
	// Cycles and WarmupCycles default to 10,000 and 1,000 (Table 3-3).
	Cycles       int
	WarmupCycles int

	// Seed seeds every run; runs differing in configuration get distinct
	// derived streams inside the fabric.
	Seed uint64

	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	Parallelism int
}

// Row is the outcome of one simulated config: the delivered ("peak")
// bandwidth and the energy per message, with the config's identity.
type Row struct {
	// Study and Variant label an ablation row; they are empty elsewhere.
	Study   string `json:"study,omitempty"`
	Variant string `json:"variant,omitempty"`

	Set     string  `json:"set"`
	Pattern string  `json:"pattern"`
	Arch    string  `json:"arch"`
	AtLoad  float64 `json:"atLoad"`

	// TotalWavelengths is the bandwidth set's data wavelength budget.
	TotalWavelengths int `json:"totalWavelengths"`

	PeakBandwidthGbps  units.Gbps      `json:"peakBandwidthGbps"`
	PerCoreGbps        units.Gbps      `json:"perCoreGbps"`
	EnergyPerMessagePJ units.Picojoule `json:"energyPerMessagePJ"`
	OfferedGbps        units.Gbps      `json:"offeredGbps"`

	PacketsDelivered int64   `json:"packetsDelivered"`
	PacketsDropped   int64   `json:"packetsDropped"`
	Retransmissions  int64   `json:"retransmissions"`
	AvgLatencyCycles float64 `json:"avgLatencyCycles"`
	MaxLatencyCycles int64   `json:"maxLatencyCycles"`
	// FairnessJain is Jain's index over the clusters' delivered bits.
	FairnessJain float64 `json:"fairnessJain"`

	// AreaMM2 is a variant's modulator area where an ablation trades
	// area for bandwidth; zero elsewhere.
	AreaMM2 units.SquareMillimeter `json:"areaMM2,omitempty"`

	AllocatedWavelengths []int `json:"allocatedWavelengths"`

	// EnergyCounts is the run's energy ledger, which EnergyPerMessagePJ
	// prices at the default constants and EnergySensitivity at others.
	EnergyCounts photonic.Counts `json:"energyCounts"`
}

// RunMatrix runs every config, in parallel up to opts.Parallelism, and
// returns one row per config in config order. It is how this package
// simulates: opts supplies the cycles, warm-up and seed of each config
// that leaves them zero (a value zero in both takes the fabric's
// default), and the configs become one batch plan, in which configs
// sharing a build prefix share one fabric and a config listed twice runs
// once. Each row is bit-identical to a solo fabric.New + Run of its
// config (the batch contract, docs/BATCHING.md). When ctx is done, the
// in-flight configs abort at the fabric's next cancellation check and
// the error returned is ctx's.
func RunMatrix(ctx context.Context, opts Options, cfgs []fabric.Config) ([]Row, error) {
	specs := make([]fabric.Config, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Cycles == 0 {
			cfg.Cycles = opts.Cycles
		}
		if cfg.WarmupCycles == 0 {
			cfg.WarmupCycles = opts.WarmupCycles
		}
		if cfg.Seed == 0 {
			cfg.Seed = opts.Seed
		}
		specs[i] = cfg
	}
	plan, err := batch.NewPlan(specs, batch.Options{Workers: opts.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out, err := plan.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	rows := make([]Row, len(out))
	for i, res := range out {
		rows[i] = Row{
			Set:                  res.Set,
			Pattern:              res.Pattern,
			Arch:                 res.Arch,
			AtLoad:               res.LoadScale,
			TotalWavelengths:     cfgs[i].WithDefaults().Set.TotalWavelengths,
			PeakBandwidthGbps:    res.Stats.DeliveredGbps,
			PerCoreGbps:          res.PerCoreGbps,
			EnergyPerMessagePJ:   res.EnergyPerMessagePJ,
			OfferedGbps:          res.OfferedGbps,
			PacketsDelivered:     res.Stats.PacketsDelivered,
			PacketsDropped:       res.Stats.PacketsDroppedRX,
			Retransmissions:      res.Stats.Retransmissions,
			AvgLatencyCycles:     res.Stats.AvgLatencyCycles,
			MaxLatencyCycles:     int64(res.Stats.MaxLatencyCycles),
			FairnessJain:         res.Stats.FairnessJain,
			AllocatedWavelengths: res.AllocatedWavelengths,
			EnergyCounts:         res.EnergyCounts,
		}
	}
	return rows, nil
}
