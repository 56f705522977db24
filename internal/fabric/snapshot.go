package fabric

import (
	"fmt"

	"hetpnoc/internal/core"
	"hetpnoc/internal/event"
	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/stats"
	"hetpnoc/internal/torus"
	"hetpnoc/internal/xbar"
)

// Checkpoint is a full checkpoint of a running fabric, taken at a cycle
// boundary with Fabric.Checkpoint and rewound with Fabric.Restore. A
// restored fabric re-steps bit-identically to the original run — the
// same packets, drops, retransmissions, allocation changes and energy
// totals — which is what lets replicated or branching experiments skip
// re-paying the warm-up (and the FabricBuild) of a shared prefix.
//
// A checkpoint is the fabric's state and a copy of each component's
// state. The immutable build products (topology, wiring, route tables,
// energy parameters) are not saved: a checkpoint only restores onto the
// fabric it was taken from.
type Checkpoint struct {
	state

	cores     []coreRun
	queues    [][]*packet.Packet // each core's queue, oldest first
	routerRRs []int

	arena     router.ArenaSnapshot
	pool      packet.PoolSnapshot
	slots     []packet.Packet // the contents of the pool's used slots
	collector stats.CollectorSnapshot
	ledger    photonic.LedgerSnapshot
	events    event.LogSnapshot
	dba       core.AllocatorSnapshot
	txs       []xbar.TXSnapshot
	rxs       []xbar.RXSnapshot
	torus     torus.NetworkSnapshot
}

// Checkpoint captures the fabric's complete mutable state at the current
// cycle boundary. The fabric is untouched: taking a checkpoint never
// perturbs the run.
func (f *Fabric) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		cores:  make([]coreRun, len(f.cores)),
		queues: make([][]*packet.Packet, len(f.cores)),
		txs:    make([]xbar.TXSnapshot, len(f.txs)),
		rxs:    make([]xbar.RXSnapshot, len(f.rxs)),
	}
	cp.state.copyFrom(&f.state)
	for c := range f.cores {
		cp.cores[c] = f.cores[c].coreRun
		cp.queues[c] = f.cores[c].queue.Snapshot(nil)
	}
	for _, r := range f.routers {
		cp.routerRRs = r.RRState(cp.routerRRs)
	}
	f.arena.Snapshot(&cp.arena)
	cp.slots = f.pool.Snapshot(&cp.pool, nil)
	f.collector.Snapshot(&cp.collector)
	f.ledger.Snapshot(&cp.ledger)
	f.events.Snapshot(&cp.events)
	if f.dba != nil {
		f.dba.Snapshot(&cp.dba)
	}
	for i, tx := range f.txs {
		tx.Snapshot(&cp.txs[i])
	}
	for i, rx := range f.rxs {
		rx.Snapshot(&cp.rxs[i])
	}
	if f.torus != nil {
		f.torus.Snapshot(&cp.torus)
	}
	return cp
}

// Restore rewinds the fabric to a checkpoint taken from it earlier. The
// checkpoint stays intact, so one checkpoint can seed any number of
// re-runs. Re-stepping after a restore is bit-identical to the original
// continuation: the root TestPathEquivalence's Checkpoint path.
func (f *Fabric) Restore(cp *Checkpoint) error {
	if len(cp.cores) != len(f.cores) {
		return fmt.Errorf("fabric: checkpoint has %d cores, fabric has %d", len(cp.cores), len(f.cores))
	}
	if err := f.arena.Restore(&cp.arena); err != nil {
		return err
	}
	f.state.copyFrom(&cp.state)
	for c := range f.cores {
		f.cores[c].coreRun = cp.cores[c]
		f.cores[c].queue.Restore(cp.queues[c])
	}
	rrs := cp.routerRRs
	for _, r := range f.routers {
		rrs = r.SetRRState(rrs)
	}
	f.pool.Restore(&cp.pool, cp.slots)
	f.collector.Restore(&cp.collector)
	f.ledger.Restore(&cp.ledger)
	f.events.Restore(&cp.events)
	if f.dba != nil {
		if err := f.dba.Restore(&cp.dba); err != nil {
			return err
		}
	}
	for i, tx := range f.txs {
		tx.Restore(&cp.txs[i])
	}
	for i, rx := range f.rxs {
		rx.Restore(&cp.rxs[i])
	}
	if f.torus != nil {
		if err := f.torus.Restore(&cp.torus); err != nil {
			return err
		}
	}
	f.rebuildGenList()
	return nil
}
