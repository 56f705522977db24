package experiments

import (
	"context"
	"fmt"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

// SensitivityRow records the architectures' energy-per-message comparison
// under one scaling of a calibrated energy constant.
type SensitivityRow struct {
	Parameter string  `json:"parameter"`
	Scale     float64 `json:"scale"`

	FireflyEPMPJ  units.Picojoule `json:"fireflyEpmPJ"`
	DHetPNoCEPMPJ units.Picojoule `json:"dhetpnocEpmPJ"`
	// DHetSavingPct is positive when d-HetPNoC dissipates less per
	// message.
	DHetSavingPct float64 `json:"dhetSavingPct"`
}

// EnergySensitivity sweeps the two calibrated (non-Table-3-4) energy
// constants — the congestion-sensitive buffer-retention term and the
// idle-detector term — and re-measures the Figure 3-4 comparison at each
// scaling. The paper's qualitative claim (d-HetPNoC dissipates less per
// message under skewed traffic) should not depend on our calibration;
// this experiment demonstrates that, quantifying EXPERIMENTS.md's
// deviation discussion.
func EnergySensitivity(ctx context.Context, opts Options, scales []float64) ([]SensitivityRow, error) {
	opts = opts.withDefaults()
	if len(scales) == 0 {
		scales = []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	}

	// Two specs per row, Firefly then d-HetPNoC, in row order.
	var rows []SensitivityRow
	var specs []fabric.Config
	for _, param := range []string{"buffer-residency", "idle-detector"} {
		for _, scale := range scales {
			if scale <= 0 {
				return nil, fmt.Errorf("experiments: sensitivity scale must be positive, got %g", scale)
			}
			energy := photonic.DefaultEnergyParams()
			switch param {
			case "buffer-residency":
				energy.BufferResidencyPJPerBitCycle = energy.BufferResidencyPJPerBitCycle.Times(scale)
			case "idle-detector":
				energy.IdleDetectorPJPerWavelengthCycle = energy.IdleDetectorPJPerWavelengthCycle.Times(scale)
			}
			for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
				cfg := pointConfig(opts, Point{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: arch}, fabric.DefaultLoadScale)
				cfg.Energy = energy
				specs = append(specs, cfg)
			}
			rows = append(rows, SensitivityRow{Parameter: param, Scale: scale})
		}
	}
	out, err := runPlan(ctx, opts, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: energy sensitivity: %w", err)
	}
	for i := range rows {
		ff, dh := out[2*i].EnergyPerMessagePJ, out[2*i+1].EnergyPerMessagePJ
		rows[i].FireflyEPMPJ = ff
		rows[i].DHetPNoCEPMPJ = dh
		rows[i].DHetSavingPct = float64((1 - dh/ff) * 100)
	}
	return rows, nil
}
