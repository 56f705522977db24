package fabric

import (
	"slices"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// Counters is one row of a run's counters, read at a cycle boundary by
// gather: every counter a Result reports but the per-cluster ones, which
// a Probe keeps in columns beside its rows. It is fixed-width and holds
// no pointer, so a copy is a snapshot. A new counter is one field here
// and one line in gather.
type Counters struct {
	Cycle            sim.Cycle // the boundary the row was read at
	TokenRotations   int64     // completed DBA token rotations (0 without the DBA)
	PacketsDelivered int64     // packets delivered since the warm-up ended

	// Totals are the whole-run packet counters, warm-up included.
	Totals Totals

	// TorusPathsSetUp and TorusSetupsBlocked count circuit
	// establishments and blocked setups (torus baseline only).
	TorusPathsSetUp    int64
	TorusSetupsBlocked int64

	// EnergyCounts is the ledger's exact per-component tally of the
	// measurement window; EnergyParams.Price re-prices it under any
	// energy constants.
	EnergyCounts photonic.Counts
}

// Probe is a run's sampled trace: one row at every positive multiple of
// Config.ProbeEvery cycles, so row i is the fabric at cycle
// (i+1)*ProbeEvery. The public hetpnoc.Probe has this layout.
type Probe struct {
	Clusters             int
	Rows                 []Counters
	AllocatedWavelengths []int32 // Clusters entries a row: each write channel's λ
	BusyCycles           []int64 // Clusters entries a row: each write channel's busy cycles (0 on the torus, which has none)
}

// newProbe preallocates every row of a run of cfg.
func newProbe(cfg Config) Probe {
	if cfg.ProbeEvery <= 0 {
		return Probe{}
	}
	rows, k := int(int64(cfg.Cycles)/cfg.ProbeEvery), chip.Clusters()
	return Probe{k, make([]Counters, rows), make([]int32, rows*k), make([]int64, rows*k)}
}

// clone returns a copy of the probe's first n rows that shares nothing
// with it.
func (p *Probe) clone(n int) *Probe {
	k := p.Clusters
	return &Probe{k, slices.Clone(p.Rows[:n]), slices.Clone(p.AllocatedWavelengths[:n*k]), slices.Clone(p.BusyCycles[:n*k])}
}

// sample writes the probe's row for the cycle boundary the fabric stands
// at, when that is a positive multiple of ProbeEvery inside the run.
// Step and skipIdle call it on every boundary they reach, and skipIdle
// never jumps across one.
func (f *Fabric) sample() {
	every, p := f.cfg.ProbeEvery, &f.probe
	if every <= 0 || int64(f.now)%every != 0 {
		return
	}
	row := int(int64(f.now)/every) - 1
	if row < 0 || row >= len(p.Rows) {
		return
	}
	k := p.Clusters
	gather(f, &p.Rows[row], p.AllocatedWavelengths[row*k:(row+1)*k], p.BusyCycles[row*k:(row+1)*k])
}

// gather reads the fabric's counters at the cycle boundary it stands at:
// the row, each cluster's wavelength count into allocated and each write
// channel's busy cycles into busy, which hold Clusters entries. It is
// both a probe row (sample) and a result's last row (result); the
// per-cluster columns are generic so that a result reads them straight
// into its own slices.
func gather[L ~int | ~int32, B ~int64 | ~float64](f *Fabric, row *Counters, allocated []L, busy []B) {
	*row = Counters{
		Cycle:            f.now,
		PacketsDelivered: f.collector.Delivered(),
		Totals:           f.collector.Totals(),
		EnergyCounts:     f.ledger.Counts(),
	}
	if f.dba != nil {
		row.TokenRotations = f.dba.Rotations()
	}
	if f.torus != nil {
		row.TorusPathsSetUp, row.TorusSetupsBlocked = f.torus.PathsSetUp(), f.torus.SetupsBlocked()
	}
	for cl := range allocated {
		allocated[cl] = L(f.alloc.AllocatedCount(topology.ClusterID(cl)))
	}
	for i, tx := range f.txs {
		busy[i] = B(tx.BusyCycles())
	}
}
