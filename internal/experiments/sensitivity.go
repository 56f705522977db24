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
// idle-detector term — and re-prices the Figure 3-4 comparison at each
// scaling. The paper's qualitative claim (d-HetPNoC dissipates less per
// message under skewed traffic) should not depend on our calibration;
// this experiment demonstrates that, quantifying EXPERIMENTS.md's
// deviation discussion. The constants never feed back into the
// simulation, so Firefly and d-HetPNoC run once each and every row prices
// their ledger counts.
func EnergySensitivity(ctx context.Context, opts Options, scales []float64) ([]SensitivityRow, error) {
	opts = opts.withDefaults()
	if len(scales) == 0 {
		scales = []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	}
	for _, scale := range scales {
		if scale <= 0 {
			return nil, fmt.Errorf("experiments: sensitivity scale must be positive, got %g", scale)
		}
	}

	var specs []fabric.Config
	for _, arch := range []fabric.Arch{fabric.Firefly, fabric.DHetPNoC} {
		specs = append(specs, pointConfig(opts, Point{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: arch}, fabric.DefaultLoadScale))
	}
	out, err := runPlan(ctx, opts, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: energy sensitivity: %w", err)
	}
	epm := func(res fabric.Result, energy photonic.EnergyParams) units.Picojoule {
		return energy.Price(res.EnergyCounts).PerMessage(res.Stats.PacketsDelivered)
	}

	var rows []SensitivityRow
	for _, param := range []string{"buffer-residency", "idle-detector"} {
		for _, scale := range scales {
			energy := photonic.DefaultEnergyParams()
			switch param {
			case "buffer-residency":
				energy.BufferResidencyPJPerBitCycle = energy.BufferResidencyPJPerBitCycle.Times(scale)
			case "idle-detector":
				energy.IdleDetectorPJPerWavelengthCycle = energy.IdleDetectorPJPerWavelengthCycle.Times(scale)
			}
			ff, dh := epm(out[0], energy), epm(out[1], energy)
			rows = append(rows, SensitivityRow{
				Parameter: param, Scale: scale,
				FireflyEPMPJ: ff, DHetPNoCEPMPJ: dh,
				DHetSavingPct: float64((1 - dh/ff) * 100),
			})
		}
	}
	return rows, nil
}
