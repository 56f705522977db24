package fabric

import (
	"fmt"

	"hetpnoc/internal/core"
	"hetpnoc/internal/event"
	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/stats"
	"hetpnoc/internal/torus"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/xbar"
)

// Checkpoint is a full checkpoint of a running fabric, taken at a cycle
// boundary with Fabric.Checkpoint and rewound with Fabric.Restore. A
// restored fabric re-steps bit-identically to the original run — the
// same packets, drops, retransmissions, allocation changes and energy
// totals — which is what lets replicated or branching experiments skip
// re-paying the warm-up (and the FabricBuild) of a shared prefix.
//
// The immutable build products (topology, wiring, route tables, energy
// parameters) are not saved: a checkpoint only restores onto the fabric
// it was taken from.
type Checkpoint struct {
	now        sim.Cycle
	msgIDs     packet.MessageID
	pktIDs     packet.ID
	skipped    int64
	assignment traffic.Assignment
	rng        uint64
	seed       uint64

	// cfg is saved whole because SetLoadScale mutates it between a
	// checkpoint and a restore (the batch engine's fork sequence);
	// restoring copies it back so a restored fabric re-steps under the
	// exact configuration it was checkpointed with. The shallow copy is
	// sound: nothing mutates the Remaps slice contents after build.
	cfg Config

	arena     *router.ArenaSnapshot
	routerRRs []int

	routerActive sim.Bitset
	txActive     sim.Bitset
	injActive    sim.Bitset
	ejectActive  sim.Bitset

	cores     []coreCheckpoint
	nextRemap int
	retx      []retransmit

	pool      *packet.PoolSnapshot
	collector *stats.CollectorSnapshot
	ledger    photonic.LedgerSnapshot
	events    *event.LogSnapshot
	dba       *core.AllocatorSnapshot
	txs       []xbar.TXSnapshot
	rxs       []xbar.RXSnapshot
	torus     *torus.NetworkSnapshot
}

// coreCheckpoint is the per-core slice of a fabric checkpoint. The
// source is a value, so the copy is the generator exactly as it stood,
// whichever task remap installed it.
type coreCheckpoint struct {
	source   traffic.Source
	queue    []*packet.Packet
	rejects  int64
	inFlight *packet.Packet
	inVC     int
	inNext   int
	ejectRR  int
}

// Checkpoint captures the fabric's complete mutable state at the current
// cycle boundary. The fabric is untouched: taking a checkpoint never
// perturbs the run.
func (f *Fabric) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		now:        f.now,
		msgIDs:     f.msgIDs,
		pktIDs:     f.pktIDs,
		skipped:    f.skipped,
		assignment: f.assignment,
		rng:        f.rng.State(),
		seed:       f.seed,
		cfg:        f.cfg,

		arena: f.arena.Snapshot(nil),

		routerActive: f.routerActive.Clone(),
		txActive:     f.txActive.Clone(),
		injActive:    f.injActive.Clone(),
		ejectActive:  f.ejectActive.Clone(),

		nextRemap: f.nextRemap,
		retx:      append([]retransmit(nil), f.retx...),

		pool:      f.pool.Snapshot(),
		collector: f.collector.Snapshot(),
		ledger:    f.ledger.Snapshot(),
		events:    f.events.Snapshot(),
	}
	for _, r := range f.routers {
		cp.routerRRs = r.RRState(cp.routerRRs)
	}
	cp.cores = make([]coreCheckpoint, len(f.cores))
	for c := range f.cores {
		cs := &f.cores[c]
		cp.cores[c] = coreCheckpoint{
			source:   cs.source,
			queue:    cs.queue.Snapshot(nil),
			rejects:  cs.rejects,
			inFlight: cs.inFlight,
			inVC:     cs.inVC,
			inNext:   cs.inNext,
			ejectRR:  cs.ejectRR,
		}
	}
	if f.dba != nil {
		cp.dba = f.dba.Snapshot()
	}
	cp.txs = make([]xbar.TXSnapshot, len(f.txs))
	for i, tx := range f.txs {
		cp.txs[i] = tx.Snapshot()
	}
	cp.rxs = make([]xbar.RXSnapshot, len(f.rxs))
	for i, rx := range f.rxs {
		cp.rxs[i] = rx.Snapshot()
	}
	if f.torus != nil {
		cp.torus = f.torus.Snapshot()
	}
	return cp
}

// Restore rewinds the fabric to a checkpoint taken from it earlier. The
// checkpoint stays intact, so one checkpoint can seed any number of
// re-runs. Re-stepping after a restore is bit-identical to the original
// continuation: the root TestPathEquivalence's Checkpoint path.
func (f *Fabric) Restore(cp *Checkpoint) error {
	if err := f.arena.Restore(cp.arena); err != nil {
		return err
	}
	rrs := cp.routerRRs
	for _, r := range f.routers {
		rrs = r.SetRRState(rrs)
	}
	f.routerActive.CopyFrom(cp.routerActive)
	f.txActive.CopyFrom(cp.txActive)
	f.injActive.CopyFrom(cp.injActive)
	f.ejectActive.CopyFrom(cp.ejectActive)

	if len(cp.cores) != len(f.cores) {
		return fmt.Errorf("fabric: checkpoint has %d cores, fabric has %d", len(cp.cores), len(f.cores))
	}
	for c := range f.cores {
		cs, saved := &f.cores[c], &cp.cores[c]
		cs.source = saved.source
		cs.queue.Restore(saved.queue)
		cs.rejects = saved.rejects
		cs.inFlight = saved.inFlight
		cs.inVC = saved.inVC
		cs.inNext = saved.inNext
		cs.ejectRR = saved.ejectRR
	}
	f.nextRemap = cp.nextRemap
	clear(f.retx)
	f.retx = append(f.retx[:0], cp.retx...)

	f.pool.Restore(cp.pool)
	f.collector.Restore(cp.collector)
	f.ledger.Restore(cp.ledger)
	f.events.Restore(cp.events)
	if f.dba != nil {
		if err := f.dba.Restore(cp.dba); err != nil {
			return err
		}
	}
	for i, tx := range f.txs {
		tx.Restore(cp.txs[i])
	}
	for i, rx := range f.rxs {
		rx.Restore(cp.rxs[i])
	}
	if f.torus != nil {
		if err := f.torus.Restore(cp.torus); err != nil {
			return err
		}
	}

	f.now = cp.now
	f.msgIDs = cp.msgIDs
	f.pktIDs = cp.pktIDs
	f.skipped = cp.skipped
	f.assignment = cp.assignment
	f.rng.SetState(cp.rng)
	f.seed = cp.seed
	f.cfg = cp.cfg

	f.rebuildGenList()
	return nil
}
