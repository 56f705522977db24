package hetpnoc

import (
	"context"
	"fmt"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/topology"
)

// Snapshot is a point-in-time view of a running simulation, delivered to
// RunWithTrace observers.
type Snapshot struct {
	Cycle int64

	// AllocatedWavelengths is the current per-cluster write-channel
	// allocation.
	AllocatedWavelengths []int

	// TokenRotations counts completed DBA token rotations so far.
	TokenRotations int64

	// PacketsDelivered counts packets delivered since the warm-up ended.
	PacketsDelivered int64
}

// TrafficRemap changes the workload mid-run: at cycle AtCycle the task
// mapping switches to Traffic and every core re-reports its demand table,
// triggering DBA reconfiguration on the following token rotations (§3.2).
// AtCycle must lie inside the run, 0 <= AtCycle < Cycles; anything else is
// a configuration error.
type TrafficRemap struct {
	AtCycle int64
	Traffic Traffic
}

// RunWithTrace simulates cfg like Run, optionally applying remaps, and
// invokes observe with a snapshot every interval cycles. Use it to watch
// the dynamic bandwidth allocation converge and react to task changes.
// It is the same run as Run in every other respect: with no remaps the
// Result is byte-identical to Run's (the observer only reads), and
// Result.Events carries the event log when cfg.EventCapacity is set.
// It takes no context, so like Run it always runs to completion. observe
// is called on the goroutine stepping the run, one call at a time, while
// RunWithTrace blocks.
//
//hetpnoc:ctxroot synchronous public entry point, shares RunContext's run path
func RunWithTrace(cfg Config, remaps []TrafficRemap, interval int64, observe func(Snapshot)) (Result, error) {
	if interval <= 0 {
		return Result{}, fmt.Errorf("hetpnoc: trace interval must be positive, got %d", interval)
	}
	return first(run(context.Background(), []Config{cfg}, remaps, interval, observe))
}

// snapshotOf captures the observable state of a running fabric, which is
// built on the default topology: lower never sets another.
func snapshotOf(f *fabric.Fabric) Snapshot {
	topo := topology.Default()
	s := Snapshot{
		Cycle:                int64(f.Now()),
		AllocatedWavelengths: make([]int, topo.Clusters()),
		PacketsDelivered:     f.DeliveredPackets(),
	}
	if dba := f.DBA(); dba != nil {
		s.TokenRotations = dba.Rotations()
		for cl := range s.AllocatedWavelengths {
			s.AllocatedWavelengths[cl] = dba.AllocatedCount(topology.ClusterID(cl))
		}
	} else {
		for cl := range s.AllocatedWavelengths {
			s.AllocatedWavelengths[cl] = len(f.AllocatedOf(topology.ClusterID(cl)))
		}
	}
	return s
}
