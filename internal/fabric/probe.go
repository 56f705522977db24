package fabric

import "hetpnoc/internal/topology"

// Probe is a run's sampled trace: one fixed-width row at every positive
// multiple of Config.ProbeEvery cycles, so row i is the fabric at cycle
// (i+1)*ProbeEvery. The public hetpnoc.Probe has this layout.
type Probe struct {
	Clusters             int
	AllocatedWavelengths []int32 // Clusters entries a row: each write channel's λ
	TokenRotations       []int64 // completed DBA token rotations (0 without the DBA)
	PacketsDelivered     []int64 // packets delivered since the warm-up ended
}

// newProbe preallocates every row of a run of cfg.
func newProbe(cfg Config) Probe {
	if cfg.ProbeEvery <= 0 {
		return Probe{}
	}
	rows, k := int(int64(cfg.Cycles)/cfg.ProbeEvery), cfg.Topology.Clusters()
	return Probe{k, make([]int32, rows*k), make([]int64, rows), make([]int64, rows)}
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
	if row < 0 || row >= len(p.TokenRotations) {
		return
	}
	allocated := p.AllocatedWavelengths[row*p.Clusters : (row+1)*p.Clusters]
	for cl := range allocated {
		allocated[cl] = int32(len(f.alloc.Allocated(topology.ClusterID(cl))))
	}
	if f.dba != nil {
		p.TokenRotations[row] = f.dba.Rotations()
	}
	p.PacketsDelivered[row] = f.collector.Delivered()
}
