package fabric

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hetpnoc/internal/core"
	"hetpnoc/internal/event"
	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/stats"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/torus"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/xbar"
)

// Fabric is one fully-assembled chip ready to simulate.
type Fabric struct {
	// cfg is the defaulted configuration the fabric was built from,
	// never written after New. Its LoadScale is the build's: the
	// current one is state.loadScale.
	cfg Config

	clock  sim.Clock
	bundle photonic.WaveguideBundle

	ledger    *photonic.Ledger
	collector *stats.Collector
	events    *event.Log

	alloc xbar.Allocator
	dba   *core.Allocator // nil for the Firefly baseline

	// arena backs every Port in the fabric (switch inputs, photonic
	// router inputs, transmit, receive and eject ports) with flat
	// (port, vc)-indexed slices and per-port occupancy bitmasks.
	arena *router.Arena

	// cores is the per-core runtime, indexed by CoreID. Pointers into
	// the slice stay valid for the fabric's lifetime: it is sized once
	// at build and never reallocated.
	cores []coreState

	clusters []*cluster
	routers  []*router.Router
	txs      []*xbar.TX
	torus    *torus.Network
	rxs      []*xbar.RX

	// genList holds the cores whose traffic source can emit packets
	// (rebuilt on every workload assignment and by Restore); idle
	// sources tick as pure no-ops and are skipped.
	genList []*coreState

	// nextGen is the earliest NextEmission over genList: no source does
	// anything before it, so Step leaves the generation walk out until
	// then and StepContext may jump to it. A bursty source holds it at or
	// below now. Restore rebuilds it with genList.
	nextGen sim.Cycle

	// remaps is cfg.Remaps in firing order: a copy sorted by cycle, ties
	// kept in configuration order, never written after New.
	// state.nextRemap walks it.
	remaps []Remap

	// built is the build's workload mapping, never written after New:
	// Reseed reinstalls it.
	built traffic.Assignment

	// demandRow is applyAssignment's scratch demand table. The allocator
	// copies each row it is given, and applyAssignment clears it after
	// use, so it holds no state a checkpoint would miss.
	demandRow []int

	// pool recycles packet structs once their tail is consumed or the
	// packet is lost; sources draw from it when generating.
	pool packet.Pool

	state
}

// Totals are the collector's un-gated whole-run packet counters; the
// conservation property tests balance them against LivePackets.
type Totals = stats.Totals

// New builds a fabric from cfg (after applying defaults and validation).
func New(cfg Config) (*Fabric, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	bundle, err := photonic.NewBundle(cfg.Set.TotalWavelengths)
	if err != nil {
		return nil, err
	}
	clock := sim.DefaultClock()

	f := &Fabric{
		cfg:       cfg,
		clock:     clock,
		bundle:    bundle,
		ledger:    photonic.NewLedger(photonic.DefaultEnergyParams()),
		collector: stats.NewCollector(clock),
		state:     state{rng: *sim.NewRNG(cfg.Seed), seed: cfg.Seed, loadScale: cfg.LoadScale, probe: newProbe(cfg)},
	}
	f.collector.SetClusterCount(cfg.Topology.Clusters())
	arena, err := router.NewArena(f.ledger, &f.occupancy)
	if err != nil {
		return nil, err
	}
	// Pre-size the arena for the exact port census of the cluster
	// builders: all-to-all uses k*(k+1) switch inputs, k+1 photonic
	// router inputs, 1 transmit and k eject ports per cluster;
	// concentrated uses k+1 switch inputs, 2 photonic router inputs,
	// 1 transmit and k eject ports.
	k := cfg.Topology.ClusterSize()
	portsPerCluster := (k + 1) * (k + 2)
	if cfg.IntraCluster == Concentrated {
		portsPerCluster = 2*k + 4
	}
	totalPorts := cfg.Topology.Clusters() * portsPerCluster
	arena.Reserve(totalPorts, totalPorts*cfg.VCsPerPort)
	f.arena = arena
	if cfg.EventCapacity > 0 {
		log, err := event.NewLog(cfg.EventCapacity)
		if err != nil {
			return nil, err
		}
		f.events = log
	}

	switch cfg.Arch {
	case Firefly, TorusPNoC:
		alloc, err := xbar.NewStatic(cfg.Topology, bundle, cfg.Set.TotalWavelengths)
		if err != nil {
			return nil, err
		}
		f.alloc = alloc
	case DHetPNoC:
		dcfg := cfg.dbaConfig(bundle)
		dcfg.Ledger, dcfg.Events = f.ledger, f.events
		dba, err := core.NewAllocator(dcfg)
		if err != nil {
			return nil, err
		}
		f.alloc = dba
		f.dba = dba
	}

	// Core states first so cluster builders can fill their ports.
	f.cores = make([]coreState, cfg.Topology.Cores())
	for c := range f.cores {
		f.cores[c].id = topology.CoreID(c)
	}

	// Clusters, electrical routers and crossbar engines.
	f.rxs = make([]*xbar.RX, cfg.Topology.Clusters())
	for cl := 0; cl < cfg.Topology.Clusters(); cl++ {
		var (
			built *cluster
			err   error
		)
		if cfg.IntraCluster == Concentrated {
			built, err = f.buildConcentrated(topology.ClusterID(cl))
		} else {
			built, err = f.buildAllToAll(topology.ClusterID(cl))
		}
		if err != nil {
			return nil, err
		}
		f.clusters = append(f.clusters, built)
		rxPort := built.rxInputPort(cfg.Topology.ClusterSize(), cfg.IntraCluster)
		f.rxs[cl] = xbar.NewRX(rxPort, f.ledger)
	}
	for _, c := range f.clusters {
		f.routers = append(f.routers, c.switches...)
	}
	for _, c := range f.clusters {
		f.routers = append(f.routers, c.photonic)
	}

	if cfg.Arch == TorusPNoC {
		txPorts := make([]*router.Port, len(f.clusters))
		for cl, c := range f.clusters {
			txPorts[cl] = c.txPort
		}
		net, err := torus.New(torus.Config{
			Nodes:              cfg.Topology.Clusters(),
			Bundle:             bundle,
			ClockHz:            clock.FrequencyHz,
			SetupHopCycles:     int(router.PipelineDelay) + 2,
			RetryBackoffCycles: cfg.RetryBackoffCycles,
			MaxFlits:           cfg.Set.Format.Flits,
			Events:             f.events,
		}, txPorts, f.rxs, f.ledger, f.handleDrop)
		if err != nil {
			return nil, err
		}
		f.torus = net
	} else {
		gating := xbar.GateChannel
		if cfg.Arch == DHetPNoC {
			gating = xbar.GateSelected
		}
		for cl, c := range f.clusters {
			tx, err := xbar.NewTX(xbar.TXConfig{
				Cluster:           topology.ClusterID(cl),
				Clusters:          cfg.Topology.Clusters(),
				MaxFlits:          cfg.Set.Format.Flits,
				Bundle:            bundle,
				Gating:            gating,
				ClockHz:           clock.FrequencyHz,
				PropagationCycles: 1,
				DisablePipelining: cfg.DisableReservationPipelining,
				Events:            f.events,
			}, c.txPort, f.alloc, f.rxs, f.ledger, f.handleDrop)
			if err != nil {
				return nil, err
			}
			f.txs = append(f.txs, tx)
		}
	}

	// Activity tracking: wire every input port to wake its consumer.
	f.routerActive = sim.NewBitset(len(f.routers))
	f.txActive = sim.NewBitset(len(f.txs))
	f.injActive = sim.NewBitset(len(f.cores))
	f.ejectActive = sim.NewBitset(len(f.cores))
	for ri, r := range f.routers {
		for i := 0; i < r.Inputs(); i++ {
			r.Input(i).WakeIn(&f.routerActive, ri)
		}
	}
	for c := range f.cores {
		f.cores[c].ejectPort.WakeIn(&f.ejectActive, c)
	}
	for i := range f.txs {
		f.clusters[i].txPort.WakeIn(&f.txActive, i)
	}

	// Initial workload mapping. An assignment draws nothing; the split
	// ahead of it only keeps each source's stream where the goldens pin
	// it, and Reseed and remap skip one at the same point.
	f.rng.Split()
	if f.built, err = cfg.Pattern.Assign(cfg.Topology, cfg.Set); err != nil {
		return nil, err
	}
	f.demandRow = make([]int, cfg.Topology.Clusters())
	if err := f.applyAssignment(f.built); err != nil {
		return nil, err
	}

	// Scheduled task remaps, in the order fireDue will reach them.
	f.remaps = slices.Clone(cfg.Remaps)
	slices.SortStableFunc(f.remaps, func(a, b Remap) int { return cmp.Compare(a.At, b.At) })
	return f, nil
}

// Events returns the protocol event log, or nil when not enabled.
func (f *Fabric) Events() *event.Log { return f.events }

// applyAssignment installs a workload mapping: new sources, first ticked
// in the current cycle, and fresh demand tables for every core.
func (f *Fabric) applyAssignment(a traffic.Assignment) error {
	f.assignment = a
	for c := range f.cores {
		coreID := topology.CoreID(c)
		profile := a.Cores[c]
		src, err := traffic.NewSource(coreID, profile, f.cfg.Set.Format, f.clock,
			f.loadScale, f.now, *f.rng.Split(), &f.pool, &f.msgIDs, &f.pktIDs)
		if err != nil {
			return err
		}
		f.cores[c].source = src
		profile.DemandTable(f.demandRow, f.cfg.Topology.ClusterOf(coreID))
		f.alloc.SetDemand(coreID, f.demandRow)
	}
	clear(f.demandRow)
	f.rebuildGenList()
	return nil
}

// rebuildGenList derives genList and nextGen from the installed sources.
func (f *Fabric) rebuildGenList() {
	f.genList = f.genList[:0]
	f.nextGen = noCycle
	for c := range f.cores {
		if src := &f.cores[c].source; !src.Idle() {
			f.genList = append(f.genList, &f.cores[c])
			f.nextGen = min(f.nextGen, src.NextEmission())
		}
	}
}

// noCycle is later than any cycle a run reaches.
const noCycle = sim.Cycle(math.MaxInt64)

// Reseed restarts the fabric's randomness from seed at the current cycle
// boundary: the run RNG is reset and the build's workload mapping is
// reinstalled, so every source draws from the new stream. Combined with
// Checkpoint/Restore this forks divergent replicas off one warmed-up
// prefix — buffers, allocations and in-flight packets carry over while
// all future random draws follow the new seed, and the result reports
// it. Reseeding the same state with the same seed is deterministic:
// re-running a fork reproduces it bit-identically.
func (f *Fabric) Reseed(seed uint64) error {
	f.seed = seed
	f.rng = *sim.NewRNG(seed)
	f.rng.Split() // as New does before its assignment
	return f.applyAssignment(f.built)
}

// SetLoadScale replaces the offered-load multiplier. It only takes
// effect on the next Reseed (or task remap), which rebuilds every
// traffic source at the current scale — so the canonical fork
// sequence Restore → SetLoadScale → Reseed reproduces, bit for bit, a
// fabric freshly built at the new load: nothing else in the build
// consumes the scale. Checkpoints capture the scale and Restore rewinds
// it, so forking across load scales never leaks one member's load into
// the next.
func (f *Fabric) SetLoadScale(scale float64) error {
	if err := f.cfg.checkLoad(scale); err != nil {
		return err
	}
	f.loadScale = scale
	return nil
}

// handleDrop is the TX engines' drop callback: the receiver had no free
// VC, the packet's flits were discarded, and the source must retransmit
// after a back-off (§1.4), up to the retry budget.
func (f *Fabric) handleDrop(p *packet.Packet, now sim.Cycle) {
	f.collector.OnDropRX()
	if p.Attempt > maxRetries {
		f.collector.OnLost()
		f.pool.Put(p)
		return
	}
	f.collector.OnRetransmit()
	f.events.AppendInts(now, event.Retransmit, int(p.SrcCluster), int64(p.ID),
		"attempt %d, back-off %d cycles", int64(p.Attempt), int64(f.cfg.RetryBackoffCycles))
	f.retx = append(f.retx, retransmit{due: now + sim.Cycle(f.cfg.RetryBackoffCycles), pkt: p})
}

// fireDue runs the work scheduled for cycle now: task remaps first, then
// the retransmissions whose back-off has expired, oldest drop first. A
// remap whose pattern cannot be assigned fails the step.
//
// Which arm leads on a cycle both fire is a convention, not a behaviour:
// the arms touch disjoint state, so swapping them produces the same
// result and event-log bytes and no test can pin the order. A remap draws
// from f.rng and replaces the sources, demand tables, genList and
// assignment, and logs TaskRemap; a retransmission draws from f.pktIDs
// and the packet pool, pushes onto a source queue, sets injActive and
// logs nothing (its Retransmit event went out when the packet dropped).
// The new sources hold &f.pktIDs but only draw from it in Tick, after
// fireDue has returned. An edit that makes one arm touch the other's
// state — a retransmission that logs, a remap that flushes queues — makes
// the order observable and must pin it with a test.
func (f *Fabric) fireDue(now sim.Cycle) error {
	for ; f.nextRemap < len(f.remaps) && f.remaps[f.nextRemap].At <= now; f.nextRemap++ {
		// A task remap rebuilds every source and demand table; a run
		// schedules a handful.
		if err := f.remap(f.remaps[f.nextRemap].Pattern, now); err != nil {
			return fmt.Errorf("remap: %w", err)
		}
	}
	fired := 0
	for ; fired < len(f.retx) && f.retx[fired].due <= now; fired++ {
		p := f.retx[fired].pkt
		retry := traffic.RetransmitFrom(&f.pool, p, now, &f.pktIDs)
		// Retransmissions bypass the source-queue limit: the message is
		// already committed and must not be silently shed.
		f.enqueueAtSource(retry.Src, retry)
		f.pool.Put(p) // the old attempt is fully copied out
	}
	if fired > 0 {
		f.retx = slices.Delete(f.retx, 0, fired) // zeroes the vacated tail
	}
	return nil
}

// remap re-assigns the workload from pattern (§3.2): new sources drawn
// from the run RNG and a fresh demand table for every core.
func (f *Fabric) remap(pattern traffic.Pattern, now sim.Cycle) error {
	f.rng.Split() // as New does before its assignment
	a, err := pattern.Assign(f.cfg.Topology, f.cfg.Set)
	if err != nil {
		return err
	}
	if err := f.applyAssignment(a); err != nil {
		return err
	}
	f.events.Appendf(now, event.TaskRemap, -1, 0, "workload -> %s", pattern.Name())
	return nil
}

// enqueueAtSource appends p to core c's source queue and registers the
// core on the injection active set. Every out-of-band insertion
// (retransmissions, tests) must go through it so the core is not skipped.
func (f *Fabric) enqueueAtSource(c topology.CoreID, p *packet.Packet) {
	f.cores[c].queue.Push(p)
	f.injActive.Set(int(c))
}

// Now returns the current cycle.
func (f *Fabric) Now() sim.Cycle { return f.now }

// DBA returns the dynamic allocator, or nil for the Firefly baseline.
func (f *Fabric) DBA() *core.Allocator { return f.dba }

// Step simulates one cycle. Each phase visits only the components on its
// active set; a skipped component's tick is provably a no-op (empty
// ports, idle engines, zero-rate sources and sources before their next
// emission), so the result is bit-identical to ticking everything —
// TestGoldenResults enforces this.
func (f *Fabric) Step() error {
	now := f.now
	if int(now) == f.cfg.WarmupCycles {
		f.ledger.StartMeasurement()
		f.collector.StartMeasurement(now)
	}

	if err := f.fireDue(now); err != nil {
		return fmt.Errorf("cycle %d: %w", now, err)
	}
	f.alloc.Tick(now)
	if now >= f.nextGen {
		f.generate(now)
	}

	// Injection into the electrical network. The scan loops below range
	// over the occupancy words and guard the decoded index with one
	// unsigned compare, which the bitset invariant makes dead but the
	// bounds-check-elimination pass can reason with: the implicit
	// per-access checks inside the loop bodies all fold away.
	// Retiring a component clears its bit through the ranged word slice
	// (the live backing of the bitset): the word index is the range
	// variable, so the store needs no bounds check either.
	cores := f.cores
	injWords := f.injActive.Words()
	for w, word := range injWords {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if uint(i) >= uint(len(cores)) {
				continue
			}
			cs := &cores[i]
			if err := cs.pumpInject(now); err != nil {
				return fmt.Errorf("cycle %d: %w", now, err)
			}
			if cs.inFlight == nil && cs.queue.Len() == 0 {
				injWords[w] &^= 1 << (uint(i) & 63)
			}
		}
	}

	// Inter-cluster photonic transport (crossbar engines or the torus).
	txs := f.txs
	txWords := f.txActive.Words()
	for w, word := range txWords {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if uint(i) >= uint(len(txs)) {
				continue
			}
			tx := txs[i]
			if err := tx.Tick(now); err != nil {
				return fmt.Errorf("cycle %d: %w", now, err)
			}
			if !tx.Busy() {
				txWords[w] &^= 1 << (uint(i) & 63)
			}
		}
	}
	if f.torus != nil {
		if err := f.torus.Tick(now); err != nil {
			return fmt.Errorf("cycle %d: %w", now, err)
		}
	}

	// Electrical routers (core switches, then photonic routers). A router
	// woken mid-phase by an upstream enqueue stays registered for the next
	// cycle; ticking it now would be a no-op anyway, because flits that
	// arrived this cycle are still inside the router pipeline delay.
	routers := f.routers
	routerWords := f.routerActive.Words()
	for w, word := range routerWords {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if uint(i) >= uint(len(routers)) {
				continue
			}
			r := routers[i]
			if err := r.Tick(now); err != nil {
				return fmt.Errorf("cycle %d: %w", now, err)
			}
			if r.BufferedFlits() == 0 {
				routerWords[w] &^= 1 << (uint(i) & 63)
			}
		}
	}

	// Core ejection.
	ejWords := f.ejectActive.Words()
	for w, word := range ejWords {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if uint(i) >= uint(len(cores)) {
				continue
			}
			cs := &cores[i]
			if err := f.drainEject(cs, now); err != nil {
				return fmt.Errorf("cycle %d: %w", now, err)
			}
			if cs.ejectPort.BufferedFlits() == 0 {
				ejWords[w] &^= 1 << (uint(i) & 63)
			}
		}
	}

	// Congestion-sensitive buffer retention energy, proportional to the
	// bits held in SRAM this cycle. An empty fabric charges nothing.
	f.ledger.Add(photonic.EnergyBufferResidency, f.occupancy*int64(f.cfg.Set.Format.FlitBits))

	f.now++
	if f.cfg.ProbeEvery > 0 {
		f.sample()
	}
	return nil
}

// generate ticks the traffic sources into the bounded source queues and
// notes when the next one is due.
func (f *Fabric) generate(now sim.Cycle) {
	next := noCycle
	for _, cs := range f.genList {
		p := cs.source.Tick(now, f.cfg.Topology)
		next = min(next, cs.source.NextEmission())
		if p == nil {
			continue
		}
		if cs.queue.Len() >= f.cfg.SourceQueueLimit {
			f.collector.OnReject()
			f.pool.Put(p) // never escaped: safe to recycle immediately
			continue
		}
		cs.queue.Push(p)
		f.injActive.Set(int(cs.id))
		f.collector.OnInject()
	}
	f.nextGen = next
}

// CancelCheckInterval is the number of cycles simulated between context
// checks in StepContext. The check lives outside Step, so the
// zero-alloc hot path is untouched: cancellation latency is bounded by
// one interval — ≤ 1,024 simulated cycles, ≈ 6 ms saturated and well
// under 1 ms at light load — while the per-cycle cost of supporting it
// is zero.
const CancelCheckInterval = 1024

// StepContext simulates up to cycles cycles, polling ctx between
// CancelCheckInterval-sized chunks. It returns ctx.Err() when canceled
// mid-run; the fabric is left at a cycle boundary and remains usable
// (Finish still produces a partial-window result). A background context
// makes it equivalent to calling Step cycles times — Step is the
// reference — but it does not call Step for a cycle in which nothing can
// happen: see skipIdle.
func (f *Fabric) StepContext(ctx context.Context, cycles int) error {
	for end := f.now + sim.Cycle(cycles); f.now < end; {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunkEnd := min(end, f.now+CancelCheckInterval)
		for f.now < chunkEnd {
			if f.occupancy == 0 && f.skipIdle(chunkEnd) {
				continue
			}
			if err := f.Step(); err != nil {
				return err
			}
		}
	}
	return nil
}

// skipIdle advances now over the cycles before limit in which Step would
// do nothing but tick the allocator, replaying that tick for each so the
// token's visits, ledger entries and events land on their cycles, and
// reports whether it advanced at all. Such a span starts with every
// activity set, the retransmission queue and the buffers empty and ends
// at the next cycle with work of its own: a source's next emission
// (bursty sources draw every cycle, so they allow no span), a task
// remap, the start of measurement, or a probe row. The torus keeps no
// activity set; a fabric that has one is stepped through every cycle.
func (f *Fabric) skipIdle(limit sim.Cycle) bool {
	if len(f.retx) != 0 || f.torus != nil ||
		!empty(&f.injActive) || !empty(&f.txActive) || !empty(&f.routerActive) || !empty(&f.ejectActive) {
		return false
	}
	limit = min(limit, f.nextGen)
	if f.nextRemap < len(f.remaps) {
		limit = min(limit, f.remaps[f.nextRemap].At)
	}
	if warm := sim.Cycle(f.cfg.WarmupCycles); f.now <= warm {
		limit = min(limit, warm)
	}
	if every := sim.Cycle(f.cfg.ProbeEvery); every > 0 {
		limit = min(limit, (f.now/every+1)*every)
	}
	if limit <= f.now {
		return false
	}
	f.skipped += int64(limit - f.now)
	for ; f.now < limit; f.now++ {
		f.alloc.Tick(f.now)
	}
	f.sample()
	return true
}

// empty reports whether no bit of b is set.
func empty(b *sim.Bitset) bool {
	for _, w := range b.Words() {
		if w != 0 {
			return false
		}
	}
	return true
}

// Run simulates the configured number of cycles and returns the result.
func (f *Fabric) Run() (Result, error) {
	if err := f.StepContext(context.Background(), f.cfg.Cycles); err != nil {
		return Result{}, err
	}
	return f.Finish()
}

// Finish closes the measurement window and assembles the result. Use it
// after driving the simulation manually with Step.
func (f *Fabric) Finish() (Result, error) {
	f.collector.Finish(f.now)
	return f.result(), nil
}

// Totals returns the un-gated whole-run packet counters.
func (f *Fabric) Totals() Totals { return f.collector.Totals() }

// BlockedHeaders returns how many router input VCs hold a header waiting
// on an output whose downstream port has run out of VCs — the §1.4
// congestion state — for tests and diagnostics.
func (f *Fabric) BlockedHeaders() int {
	n := 0
	for _, r := range f.routers {
		n += r.BlockedHeaders()
	}
	return n
}

// PendingRetransmits returns how many dropped packets are waiting out
// their back-off before re-entering their source queue, for tests and
// diagnostics.
func (f *Fabric) PendingRetransmits() int { return len(f.retx) }

// SkippedCycles returns how many cycles StepContext has advanced over
// without calling Step, for tests and diagnostics.
func (f *Fabric) SkippedCycles() int64 { return f.skipped }

// LivePackets returns the packets currently in flight anywhere in the
// fabric: source queues, router buffers, photonic channels and pending
// retransmissions.
func (f *Fabric) LivePackets() int64 { return f.pool.Live() }

// AllocatedOf returns the wavelengths currently owned by cluster c.
func (f *Fabric) AllocatedOf(c topology.ClusterID) []photonic.WavelengthID {
	return f.alloc.Allocated(c)
}
