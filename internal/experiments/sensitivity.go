package experiments

import (
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

// SensitivityRuns lists the two runs EnergySensitivity prices: Firefly
// and d-HetPNoC under skewed-2 traffic at BW set 1, a Figure 3-4 point.
func SensitivityRuns() []fabric.Config {
	return []fabric.Config{
		{Arch: fabric.Firefly, Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}},
		{Arch: fabric.DHetPNoC, Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}},
	}
}

// EnergySensitivity sweeps the two calibrated (non-Table-3-4) energy
// constants — the congestion-sensitive buffer-retention term and the
// idle-detector term — and re-prices the Figure 3-4 comparison at each
// scaling. The paper's qualitative claim (d-HetPNoC dissipates less per
// message under skewed traffic) should not depend on our calibration;
// this experiment demonstrates that, quantifying EXPERIMENTS.md's
// deviation discussion. The constants never feed back into the
// simulation, so every row prices the ledger counts of the same two
// rows: firefly and dhet, the rows of SensitivityRuns' configs.
func EnergySensitivity(firefly, dhet Row, scales []float64) ([]SensitivityRow, error) {
	if len(scales) == 0 {
		scales = []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	}
	for _, scale := range scales {
		if scale <= 0 {
			return nil, fmt.Errorf("experiments: sensitivity scale must be positive, got %g", scale)
		}
	}
	epm := func(r Row, energy photonic.EnergyParams) units.Picojoule {
		return energy.Price(r.EnergyCounts).PerMessage(r.PacketsDelivered)
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
			ff, dh := epm(firefly, energy), epm(dhet, energy)
			rows = append(rows, SensitivityRow{
				Parameter: param, Scale: scale,
				FireflyEPMPJ: ff, DHetPNoCEPMPJ: dh,
				DHetSavingPct: float64((1 - dh/ff) * 100),
			})
		}
	}
	return rows, nil
}
