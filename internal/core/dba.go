// Package core implements the thesis's primary contribution: the
// token-passing dynamic bandwidth allocation (DBA) mechanism of d-HetPNoC
// (§3.2). A token circulates between the photonic routers on a dedicated
// control waveguide; each bit of the token records whether one dynamically
// allocatable wavelength is free. The router holding the token acquires or
// relinquishes wavelengths for its write channel according to its request
// table — the per-destination maximum of the demand tables its four cores
// report whenever their task mapping changes.
//
// The allocator guarantees a minimum reserved allocation per cluster (at
// least one wavelength, §3.2.1) so no cluster starves even when the rest
// of the budget is consumed.
package core

import (
	"fmt"

	"hetpnoc/internal/event"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
	"hetpnoc/internal/units"
	"hetpnoc/internal/xbar"
)

// Policy selects how a token-holding router sizes its allocation target.
type Policy int

// Allocation policies.
const (
	// PolicyGreedy is the thesis's §3.2.1 rule: aim for the highest
	// request-table entry, bounded only by the reserve, the channel cap
	// and pool availability. Simple, but contended pools go to whoever
	// the token reaches first (mitigated by MaxAcquirePerVisit).
	PolicyGreedy Policy = iota + 1

	// PolicyProportional is this repository's take on the thesis's
	// stated future work ("find better ways to effectively manage
	// bandwidth allocation"): the token additionally carries each
	// router's latest demand, and every router targets its
	// demand-proportional share of the dynamic pool. Costs
	// clusters x 10 extra token bits; converges to a demand-weighted
	// fair division under contention.
	PolicyProportional
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyGreedy:
		return "greedy"
	case PolicyProportional:
		return "proportional"
	default:
		return "unknown"
	}
}

// demandFieldBits is the per-cluster width of the demand field the
// proportional policy piggybacks on the token.
const demandFieldBits = 10

// Config parameterizes the allocator.
type Config struct {
	Topology topology.Topology
	Bundle   photonic.WaveguideBundle

	// TotalWavelengths is the aggregate data-wavelength budget (N_W *
	// lambda_W slots exist physically; only this many are provisioned).
	TotalWavelengths int

	// ReservedPerCluster is the guaranteed minimum allocation (N_lambdaR
	// = clusters x this). At least 1 (§3.2.1).
	ReservedPerCluster int

	// MaxChannelWavelengths caps one write channel's allocation
	// (Table 3-3: 8, 32 and 64 for the three bandwidth sets). Zero means
	// "no cap beyond the budget".
	MaxChannelWavelengths int

	// ClockHz converts the token's serialized size into link cycles.
	ClockHz float64

	// MaxAcquirePerVisit bounds how many new wavelengths a router may
	// grab during one token visit. Incremental acquisition lets
	// contending clusters converge to a fair division of the pool over a
	// few token rotations instead of the first visitor draining it; the
	// thesis's request tables are deliberately left unmodified after
	// allocation so a router "can try to acquire additional wavelengths
	// ... the next time the token returns" (§3.2.1). Zero selects the
	// default of max(1, MaxChannelWavelengths/8).
	MaxAcquirePerVisit int

	// WaveguidesPerCluster, when positive, implements the thesis's
	// Chapter 4 area-mitigation proposal: "restrict a certain photonic
	// router PRx to wavelengths of Waveguide(x) and Waveguide(x+1)",
	// shrinking the modulator/detector count at the cost of allocation
	// flexibility. Cluster c may then only acquire wavelengths in the
	// WaveguidesPerCluster waveguides starting at its home waveguide
	// (c mod N_W). Zero means unrestricted (the baseline d-HetPNoC).
	// Requires the budget to fill whole waveguides.
	WaveguidesPerCluster int

	// Ledger, when non-nil, is charged for the token's optical traffic
	// on the control waveguide.
	Ledger *photonic.Ledger

	// Events, when non-nil, receives allocation-change events.
	Events *event.Log

	// Policy selects the allocation rule; zero means PolicyGreedy, the
	// thesis's behaviour.
	Policy Policy
}

// Allocator is the token-passing DBA engine. It implements xbar.Allocator.
type Allocator struct {
	cfg      Config
	clusters int

	// reservedOwner[slot] is the cluster the slot is permanently
	// reserved for, or -1 for dynamically allocatable slots.
	reservedOwner []int

	// wants[c] is want(c), the greedy aim request[c] implies; SetDemand
	// refreshes it and Restore recomputes it, so a token visit reads it
	// instead of scanning the row.
	wants []int
	// currentFor[c] is the allocation count current[c] was last derived
	// from, or -1 once request[c] has changed since (SetDemand) or the
	// tables were rewound (Restore). Request tables move only on a task
	// remap (§3.2.1), so between remaps a visit that keeps its count finds
	// current[c] already right and leaves it.
	currentFor []int
	// free counts the unowned slots within the budget, so a visit that
	// wants more of an exhausted pool skips the slot scan. Restore
	// recounts it.
	free int

	// Token sizing.
	transitCycles int
	tokenBits     int

	// stride is the width of one cluster's acquired row: the most
	// wavelengths one channel can hold.
	stride int

	state
}

// state is the allocator's checkpointed part: ownership, the per-cluster
// tables and token circulation. The fixed-shape tables are flat, one row
// per cluster (per core for demand) and one column per destination
// cluster, so each copies whole.
type state struct {
	// Token circulation state, beside the token sizing above it.
	pos         int
	transitLeft int
	rotations   int64

	// owner[slot] is the cluster owning wavelength slot, or -1.
	owner []int
	// held[c] is how many wavelengths cluster c owns, and
	// acquired[c*stride:][:held[c]] lists them: reserved slots first,
	// then dynamic slots in acquisition order.
	held     []int
	acquired []int

	// demand row c*K+i is the wavelength demand core i of cluster c
	// reports toward each destination cluster (K cores per cluster).
	demand []int
	// request row c is the per-destination maximum of cluster c's demand
	// rows (§3.2.1).
	request []int
	// current row c is the allocation the router recorded for each
	// destination after its last token visit.
	current []int

	// tokenDemand[c] is the demand value cluster c last wrote into the
	// token's demand field (proportional policy only).
	tokenDemand []int
}

// copyFrom makes dst a copy of src that shares no backing array with it,
// reusing dst's arrays.
func (dst *state) copyFrom(src *state) {
	keep := *dst
	*dst = *src
	dst.owner = append(keep.owner[:0], src.owner...)
	dst.held = append(keep.held[:0], src.held...)
	dst.acquired = append(keep.acquired[:0], src.acquired...)
	dst.demand = append(keep.demand[:0], src.demand...)
	dst.request = append(keep.request[:0], src.request...)
	dst.current = append(keep.current[:0], src.current...)
	dst.tokenDemand = append(keep.tokenDemand[:0], src.tokenDemand...)
}

// row returns row r of a flat per-destination table.
func (a *Allocator) row(table []int, r int) []int {
	return table[r*a.clusters : (r+1)*a.clusters]
}

var _ xbar.Allocator = (*Allocator)(nil)

// Check reports why NewAllocator would refuse cfg's topology, budget
// and knobs, without building anything; fabric.Config.Validate asks it
// of every d-HetPNoC config.
func (cfg Config) Check() error {
	clusters := cfg.Topology.Clusters()
	if clusters == 0 {
		return fmt.Errorf("core: topology has no clusters")
	}
	if cfg.ReservedPerCluster < 1 {
		return fmt.Errorf("core: reserved wavelengths per cluster must be >= 1, got %d", cfg.ReservedPerCluster)
	}
	if cfg.TotalWavelengths < clusters*cfg.ReservedPerCluster {
		return fmt.Errorf("core: %d wavelengths cannot reserve %d for each of %d clusters",
			cfg.TotalWavelengths, cfg.ReservedPerCluster, clusters)
	}
	if cfg.TotalWavelengths > cfg.Bundle.Capacity() {
		return fmt.Errorf("core: budget %d exceeds bundle capacity %d", cfg.TotalWavelengths, cfg.Bundle.Capacity())
	}
	if cfg.MaxChannelWavelengths < 0 {
		return fmt.Errorf("core: negative channel cap")
	}
	if cfg.MaxAcquirePerVisit < 0 {
		return fmt.Errorf("core: negative per-visit acquisition bound")
	}
	if cfg.WaveguidesPerCluster < 0 {
		return fmt.Errorf("core: negative waveguide restriction")
	}
	if cfg.WaveguidesPerCluster > 0 {
		if cfg.TotalWavelengths%cfg.Bundle.WavelengthsPerWaveguide != 0 {
			return fmt.Errorf("core: waveguide restriction needs a whole-waveguide budget, got %d wavelengths",
				cfg.TotalWavelengths)
		}
		if cfg.WaveguidesPerCluster > cfg.Bundle.Waveguides {
			return fmt.Errorf("core: restriction to %d waveguides exceeds the %d available",
				cfg.WaveguidesPerCluster, cfg.Bundle.Waveguides)
		}
		perWaveguideReserve := (clusters + cfg.Bundle.Waveguides - 1) / cfg.Bundle.Waveguides * cfg.ReservedPerCluster
		if perWaveguideReserve > cfg.Bundle.WavelengthsPerWaveguide {
			return fmt.Errorf("core: reserved wavelengths do not fit the home waveguides")
		}
	}
	if cfg.Policy != 0 && cfg.Policy != PolicyGreedy && cfg.Policy != PolicyProportional {
		return fmt.Errorf("core: unknown allocation policy %d", cfg.Policy)
	}
	return nil
}

// NewAllocator validates cfg and builds the allocator with every cluster
// holding exactly its reserved wavelengths and the token at cluster 0.
func NewAllocator(cfg Config) (*Allocator, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	clusters := cfg.Topology.Clusters()
	perWavelength, err := photonic.WavelengthCredit(cfg.ClockHz)
	if err != nil {
		return nil, fmt.Errorf("core: clock frequency %g Hz: wavelength rate per cycle: %w", cfg.ClockHz, err)
	}
	if cfg.MaxAcquirePerVisit == 0 {
		cfg.MaxAcquirePerVisit = cfg.MaxChannelWavelengths / 8
		if cfg.MaxAcquirePerVisit < 1 {
			cfg.MaxAcquirePerVisit = 1
		}
	}

	stride := cfg.TotalWavelengths
	if cfg.MaxChannelWavelengths > 0 {
		stride = min(stride, max(cfg.MaxChannelWavelengths, cfg.ReservedPerCluster))
	}
	a := &Allocator{
		cfg:           cfg,
		clusters:      clusters,
		reservedOwner: make([]int, cfg.Bundle.Capacity()),
		wants:         make([]int, clusters),
		currentFor:    make([]int, clusters),
		stride:        stride,
		state: state{
			owner:       make([]int, cfg.Bundle.Capacity()),
			held:        make([]int, clusters),
			acquired:    make([]int, clusters*stride),
			demand:      make([]int, clusters*cfg.Topology.ClusterSize()*clusters),
			request:     make([]int, clusters*clusters),
			current:     make([]int, clusters*clusters),
			tokenDemand: make([]int, clusters),
		},
	}
	for s := range a.owner {
		a.owner[s] = -1
		a.reservedOwner[s] = -1
	}
	for c := 0; c < clusters; c++ {
		for k := 0; k < cfg.ReservedPerCluster; k++ {
			slot := a.reservedSlot(c, k)
			if a.reservedOwner[slot] != -1 {
				return nil, fmt.Errorf("core: reserved slot %d assigned twice", slot)
			}
			a.reservedOwner[slot] = c
			a.owner[slot] = c
			a.acquired[c*stride+k] = slot
		}
		a.held[c] = cfg.ReservedPerCluster
	}

	if cfg.Policy == 0 {
		a.cfg.Policy = PolicyGreedy
	}
	a.resetDerived()

	// Token sizing, Eq. (1): N_TW = N_W * lambda_W - N_lambdaR bits, one
	// bit per dynamically allocatable wavelength. Transit time, Eq. (2):
	// T_L = N_TW / (lambda_W * B) on the full-DWDM control waveguide.
	// The proportional policy piggybacks a per-cluster demand field.
	a.tokenBits = cfg.Bundle.Capacity() - clusters*cfg.ReservedPerCluster
	if a.cfg.Policy == PolicyProportional {
		a.tokenBits += clusters * demandFieldBits
	}
	a.transitCycles = units.CyclesFor(a.tokenBits, perWavelength*units.BitCredit(cfg.Bundle.WavelengthsPerWaveguide))
	a.transitLeft = a.transitCycles
	return a, nil
}

// Name implements xbar.Allocator.
func (a *Allocator) Name() string { return "token-dba" }

// TokenBits returns N_TW, the token size in bits (Eq. 1).
func (a *Allocator) TokenBits() int { return a.tokenBits }

// TransitCycles returns T_L in cycles (Eq. 2).
func (a *Allocator) TransitCycles() int { return a.transitCycles }

// Rotations returns how many full token rotations have completed.
func (a *Allocator) Rotations() int64 { return a.rotations }

// SetDemand implements xbar.Allocator: core reports its per-destination
// wavelength demand. The request table updates immediately — the thesis
// notes this works even when the token is elsewhere — and takes effect on
// the cluster's next token visit.
func (a *Allocator) SetDemand(core topology.CoreID, demand []int) {
	c := int(a.cfg.Topology.ClusterOf(core))
	i := a.cfg.Topology.LocalIndex(core)
	if len(demand) != a.clusters {
		panic(fmt.Sprintf("core: demand table has %d entries for %d clusters", len(demand), a.clusters))
	}
	k := a.cfg.Topology.ClusterSize()
	rows := a.demand[c*k*a.clusters : (c+1)*k*a.clusters] // cluster c's core rows
	copy(rows[i*a.clusters:], demand)
	request := a.row(a.request, c)
	for d := range request {
		maxDemand := 0
		for j := d; j < len(rows); j += a.clusters {
			maxDemand = max(maxDemand, rows[j])
		}
		request[d] = maxDemand
	}
	a.wants[c] = a.want(c)
	a.currentFor[c] = -1
}

// resetDerived recomputes every cluster's cached aim, marks every
// current row stale and recounts the free pool, after the tables they
// derive from were set wholesale (construction, Restore).
func (a *Allocator) resetDerived() {
	for c := range a.wants {
		a.wants[c] = a.want(c)
		a.currentFor[c] = -1
	}
	a.free = 0
	for _, o := range a.owner[:a.cfg.TotalWavelengths] {
		if o == -1 {
			a.free++
		}
	}
}

// Tick implements xbar.Allocator: one cycle of token circulation. When the
// token arrives at a router, the router reconciles its allocation with its
// request table, stamps its current table, and releases the token to the
// next cluster.
func (a *Allocator) Tick(now sim.Cycle) {
	a.transitLeft--
	if a.transitLeft > 0 {
		return
	}
	a.process(a.pos, now)
	a.pos = (a.pos + 1) % a.clusters
	if a.pos == 0 {
		a.rotations++
	}
	a.transitLeft = a.transitCycles
	if a.cfg.Ledger != nil {
		// The token's bits are modulated onto the control waveguide,
		// propagate, and are detected by the next router.
		bits := int64(a.tokenBits)
		a.cfg.Ledger.AddControlTransmit(bits)
		a.cfg.Ledger.Add(photonic.EnergyModulation, bits)
	}
}

// want computes the §3.2.1 greedy aim of cluster c: the highest request
// toward any destination, floored at the reserved minimum and capped at
// the per-channel ceiling and the total budget. A visit reads it from
// wants.
func (a *Allocator) want(c int) int {
	t := 0
	for _, w := range a.row(a.request, c) {
		if w > t {
			t = w
		}
	}
	if t < a.cfg.ReservedPerCluster {
		t = a.cfg.ReservedPerCluster
	}
	if a.cfg.MaxChannelWavelengths > 0 && t > a.cfg.MaxChannelWavelengths {
		t = a.cfg.MaxChannelWavelengths
	}
	if t > a.cfg.TotalWavelengths {
		t = a.cfg.TotalWavelengths
	}
	return t
}

// target returns the allocation cluster c aims for under the configured
// policy. Under PolicyProportional the router first records its own
// demand in the token's demand field, then caps its aim at its
// demand-proportional share of the dynamic pool (based on every router's
// last-written demand).
func (a *Allocator) target(c int) int {
	want := a.wants[c]
	if a.cfg.Policy != PolicyProportional {
		return want
	}

	reserved := a.cfg.ReservedPerCluster
	maxField := 1<<demandFieldBits - 1
	dyn := want - reserved
	if dyn > maxField {
		dyn = maxField
	}
	a.tokenDemand[c] = dyn

	totalDyn := 0
	for _, d := range a.tokenDemand {
		totalDyn += d
	}
	dynamicPool := a.cfg.TotalWavelengths - a.clusters*reserved
	if totalDyn <= dynamicPool {
		return want // everyone is satisfiable; no need to scale back
	}
	share := reserved + dyn*dynamicPool/totalDyn
	if share < reserved {
		share = reserved
	}
	if share < want {
		return share
	}
	return want
}

// process reconciles cluster c's allocation against its request table
// while it holds the token.
func (a *Allocator) process(c int, now sim.Cycle) {
	target := a.target(c)
	have := a.held[c]
	before := have
	row := a.acquired[c*a.stride : (c+1)*a.stride]

	switch {
	case have < target:
		// Acquire free dynamic wavelengths in ascending slot order, at
		// most MaxAcquirePerVisit per visit. Only slots within the
		// provisioned budget (and, under waveguide restriction, this
		// cluster's allowed waveguides) are allocatable.
		if limit := have + a.cfg.MaxAcquirePerVisit; target > limit {
			target = limit
		}
		for slot := 0; a.free > 0 && slot < a.cfg.TotalWavelengths && have < target; slot++ {
			if a.owner[slot] != -1 || a.reservedOwner[slot] != -1 || !a.slotAllowed(slot, c) {
				continue
			}
			a.owner[slot] = c
			a.free--
			row[have] = slot
			have++
		}
	case have > target:
		// Relinquish surplus dynamic wavelengths, most recently acquired
		// first; reserved slots are never released.
		for have > target {
			last := row[have-1]
			if a.reservedOwner[last] == c {
				break
			}
			a.owner[last] = -1
			a.free++
			have--
		}
	}
	a.held[c] = have

	if have != a.currentFor[c] {
		current := a.row(a.current, c)
		for d, req := range a.row(a.request, c) {
			current[d] = min(req, have)
		}
		a.currentFor[c] = have
	}
	if have != before {
		a.cfg.Events.AppendInts(now, event.AllocationChanged, c, 0,
			"%d -> %d wavelengths (target %d)", int64(before), int64(have), int64(target))
	}
}

// reservedSlot returns the k-th permanently reserved slot of cluster c.
// Unrestricted allocators pack the reserves at the start of the bundle;
// waveguide-restricted ones place each cluster's reserves inside its home
// waveguide (c mod N_W), where it is guaranteed modulators exist.
func (a *Allocator) reservedSlot(c, k int) int {
	if a.cfg.WaveguidesPerCluster == 0 {
		return c*a.cfg.ReservedPerCluster + k
	}
	nw := a.cfg.Bundle.Waveguides
	home := c % nw
	offset := (c/nw)*a.cfg.ReservedPerCluster + k
	return home*a.cfg.Bundle.WavelengthsPerWaveguide + offset
}

// slotAllowed reports whether cluster c's modulators can drive slot. With
// no restriction every cluster reaches every waveguide; restricted
// clusters reach WaveguidesPerCluster waveguides starting at their home.
func (a *Allocator) slotAllowed(slot, c int) bool {
	w := a.cfg.WaveguidesPerCluster
	if w == 0 {
		return true
	}
	nw := a.cfg.Bundle.Waveguides
	wg := slot / a.cfg.Bundle.WavelengthsPerWaveguide
	home := c % nw
	for i := 0; i < w; i++ {
		if wg == (home+i)%nw {
			return true
		}
	}
	return false
}

// slots returns the slots cluster c owns, in acquisition order.
func (a *Allocator) slots(c int) []int {
	return a.acquired[c*a.stride:][:a.held[c]]
}

// Allocated implements xbar.Allocator, building the IDs on every call.
func (a *Allocator) Allocated(c topology.ClusterID) []photonic.WavelengthID {
	ids := make([]photonic.WavelengthID, a.held[c])
	for i, slot := range a.slots(int(c)) {
		ids[i] = a.cfg.Bundle.IDForSlot(slot)
	}
	return ids
}

// AllocatedCount implements xbar.Allocator.
func (a *Allocator) AllocatedCount(c topology.ClusterID) int {
	return a.held[c]
}

// SelectForPacket implements xbar.Allocator: a packet uses the first of
// the allocated wavelengths, as many as the current table entry for the
// destination (§3.3.1). A packet toward a destination with no recorded
// demand still gets the reserved minimum.
func (a *Allocator) SelectForPacket(src, dst topology.ClusterID) int {
	want := max(a.current[int(src)*a.clusters+int(dst)], a.cfg.ReservedPerCluster)
	return min(want, a.held[src])
}

// RequestTable returns a copy of cluster c's request table.
func (a *Allocator) RequestTable(c topology.ClusterID) []int {
	out := make([]int, a.clusters)
	copy(out, a.row(a.request, int(c)))
	return out
}

// CheckInvariants verifies the allocation's structural invariants; tests
// call it after arbitrary protocol activity. It returns a descriptive
// error on the first violation.
func (a *Allocator) CheckInvariants() error {
	seen := make(map[int]int)
	total := 0
	for c := 0; c < a.clusters; c++ {
		if a.held[c] < a.cfg.ReservedPerCluster {
			return fmt.Errorf("core: cluster %d holds %d < reserved %d wavelengths",
				c, a.held[c], a.cfg.ReservedPerCluster)
		}
		if limit := a.cfg.MaxChannelWavelengths; limit > 0 && a.held[c] > limit {
			return fmt.Errorf("core: cluster %d holds %d > cap %d wavelengths", c, a.held[c], limit)
		}
		for _, slot := range a.slots(c) {
			if prev, dup := seen[slot]; dup {
				return fmt.Errorf("core: slot %d owned by both cluster %d and %d", slot, prev, c)
			}
			seen[slot] = c
			if a.owner[slot] != c {
				return fmt.Errorf("core: slot %d in cluster %d's list but owned by %d", slot, c, a.owner[slot])
			}
			if slot >= a.cfg.TotalWavelengths {
				return fmt.Errorf("core: slot %d outside provisioned budget %d", slot, a.cfg.TotalWavelengths)
			}
			if ro := a.reservedOwner[slot]; ro != -1 && ro != c {
				return fmt.Errorf("core: cluster %d holds slot %d reserved for %d", c, slot, ro)
			}
			if !a.slotAllowed(slot, c) {
				return fmt.Errorf("core: cluster %d holds slot %d outside its allowed waveguides", c, slot)
			}
		}
		total += a.held[c]
	}
	if total > a.cfg.TotalWavelengths {
		return fmt.Errorf("core: %d wavelengths allocated, budget is %d", total, a.cfg.TotalWavelengths)
	}
	if a.free != a.cfg.TotalWavelengths-total {
		return fmt.Errorf("core: free count %d, but %d of %d wavelengths are unowned", a.free, a.cfg.TotalWavelengths-total, a.cfg.TotalWavelengths)
	}
	for slot, owner := range a.owner {
		if owner == -1 {
			continue
		}
		if c, ok := seen[slot]; !ok || c != owner {
			return fmt.Errorf("core: owner map says slot %d belongs to %d, lists disagree", slot, owner)
		}
	}
	for slot, ro := range a.reservedOwner {
		if ro == -1 {
			continue
		}
		if a.owner[slot] != ro {
			return fmt.Errorf("core: reserved slot %d of cluster %d owned by %d", slot, ro, a.owner[slot])
		}
	}
	return nil
}
