package core

import (
	"testing"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

func newAllocator(t *testing.T, total, reserved, maxChannel, perVisit int) *Allocator {
	t.Helper()
	bundle, err := photonic.NewBundle(total)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAllocator(Config{
		Topology:              topology.Default(),
		Bundle:                bundle,
		TotalWavelengths:      total,
		ReservedPerCluster:    reserved,
		MaxChannelWavelengths: maxChannel,
		MaxAcquirePerVisit:    perVisit,
		ClockHz:               2.5e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// demandAll sets every core of cluster cl to demand n wavelengths toward
// every foreign cluster.
func demandAll(a *Allocator, topo topology.Topology, cl topology.ClusterID, n int) {
	table := make([]int, topo.Clusters())
	for d := range table {
		if topology.ClusterID(d) != cl {
			table[d] = n
		}
	}
	for _, core := range topo.CoresOf(cl) {
		a.SetDemand(core, table)
	}
}

// rotate runs enough ticks for the token to visit every router k times.
func rotate(a *Allocator, k int) {
	cycles := a.TransitCycles() * 16 * k
	for i := 0; i < cycles; i++ {
		a.Tick(sim.Cycle(i))
	}
}

// TestTokenSizingEquations checks Eq. (1) and Eq. (2): N_TW = N_W*lambda_W
// - N_lambdaR bits, and the transit time on the 800 Gb/s control
// waveguide.
func TestTokenSizingEquations(t *testing.T) {
	// 64 wavelengths, 16 reserved: 1 waveguide x 64 - 16 = 48 bits ->
	// under one 320-bit cycle.
	a := newAllocator(t, 64, 1, 8, 0)
	if got := a.TokenBits(); got != 48 {
		t.Fatalf("token bits = %d, want 48 (Eq. 1)", got)
	}
	if got := a.TransitCycles(); got != 1 {
		t.Fatalf("transit = %d cycles, want 1 (Eq. 2)", got)
	}

	// 512 wavelengths: 8 waveguides x 64 - 16 = 496 bits -> 2 cycles.
	a = newAllocator(t, 512, 1, 64, 0)
	if got := a.TokenBits(); got != 496 {
		t.Fatalf("token bits = %d, want 496 (Eq. 1)", got)
	}
	if got := a.TransitCycles(); got != 2 {
		t.Fatalf("transit = %d cycles, want 2 (Eq. 2)", got)
	}
}

func TestInitialAllocationIsReservedMinimum(t *testing.T) {
	a := newAllocator(t, 64, 1, 8, 0)
	for cl := 0; cl < 16; cl++ {
		if got := a.AllocatedCount(topology.ClusterID(cl)); got != 1 {
			t.Fatalf("cluster %d starts with %d wavelengths, want the reserved 1", cl, got)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAcquisitionMatchesDemand: with demand below contention every cluster
// converges to exactly its requested wavelength count.
func TestAcquisitionMatchesDemand(t *testing.T) {
	topo := topology.Default()
	a := newAllocator(t, 64, 1, 8, 0)
	// Every cluster demands 4 wavelengths: 16 x 4 = 64 = budget.
	for cl := 0; cl < 16; cl++ {
		demandAll(a, topo, topology.ClusterID(cl), 4)
	}
	rotate(a, 8)
	for cl := 0; cl < 16; cl++ {
		if got := a.AllocatedCount(topology.ClusterID(cl)); got != 4 {
			t.Fatalf("cluster %d holds %d wavelengths, want 4", cl, got)
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRelinquishOnDemandDrop: when a task unmaps, its wavelengths return
// to the pool on the next token visit and another cluster can take them.
func TestRelinquishOnDemandDrop(t *testing.T) {
	topo := topology.Default()
	a := newAllocator(t, 64, 1, 8, 0)
	demandAll(a, topo, 0, 8)
	rotate(a, 8)
	if got := a.AllocatedCount(0); got != 8 {
		t.Fatalf("cluster 0 holds %d, want 8", got)
	}

	// Task change: cluster 0 drops to 1, cluster 5 now wants 8.
	demandAll(a, topo, 0, 1)
	demandAll(a, topo, 5, 8)
	rotate(a, 8)
	if got := a.AllocatedCount(0); got != 1 {
		t.Fatalf("cluster 0 still holds %d after demand drop, want 1", got)
	}
	if got := a.AllocatedCount(5); got != 8 {
		t.Fatalf("cluster 5 holds %d, want 8", got)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChannelCap: Table 3-3 caps a channel at the top class's need (8
// wavelengths for bandwidth set 1) even under higher demand.
func TestChannelCap(t *testing.T) {
	topo := topology.Default()
	a := newAllocator(t, 64, 1, 8, 0)
	demandAll(a, topo, 3, 40)
	rotate(a, 10)
	if got := a.AllocatedCount(3); got != 8 {
		t.Fatalf("cluster 3 holds %d wavelengths, cap is 8", got)
	}
}

// TestContentionFairness: eleven clusters demanding the maximum split the
// pool without starvation — the incremental per-visit acquisition
// converges to a balanced division.
func TestContentionFairness(t *testing.T) {
	topo := topology.Default()
	a := newAllocator(t, 64, 1, 8, 1)
	for cl := 0; cl < 11; cl++ {
		demandAll(a, topo, topology.ClusterID(cl), 8)
	}
	rotate(a, 20)

	low, high := 64, 0
	total := 0
	for cl := 0; cl < 11; cl++ {
		n := a.AllocatedCount(topology.ClusterID(cl))
		if n < low {
			low = n
		}
		if n > high {
			high = n
		}
		total += n
	}
	if high-low > 1 {
		t.Fatalf("unfair division under contention: min %d, max %d", low, high)
	}
	// 64 - 5 idle reserved (clusters 11-15) = 59 wavelengths in play.
	if total != 59 {
		t.Fatalf("contending clusters hold %d wavelengths, want 59", total)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestTableUsesMax verifies the §3.2.1 rule: the request entry is
// the maximum of the four cores' demands, not their sum.
func TestRequestTableUsesMax(t *testing.T) {
	topo := topology.Default()
	a := newAllocator(t, 64, 1, 8, 0)
	table := make([]int, 16)
	table[9] = 3
	a.SetDemand(topo.CoreAt(0, 0), table)
	table2 := make([]int, 16)
	table2[9] = 5
	a.SetDemand(topo.CoreAt(0, 1), table2)

	req := a.RequestTable(0)
	if req[9] != 5 {
		t.Fatalf("request[9] = %d, want max(3,5) = 5", req[9])
	}

	// Lowering the highest core's demand lowers the max.
	table2[9] = 2
	a.SetDemand(topo.CoreAt(0, 1), table2)
	if req := a.RequestTable(0); req[9] != 3 {
		t.Fatalf("request[9] = %d after update, want 3", req[9])
	}
}

// TestSelectForPacketUsesDemand: the wavelengths used for a packet follow
// the current-table entry for its destination (§3.3.1), floored at the
// reserved minimum.
func TestSelectForPacketUsesDemand(t *testing.T) {
	topo := topology.Default()
	a := newAllocator(t, 64, 1, 8, 0)
	// Cluster 0 demands 8 toward cluster 1 but only 2 toward cluster 2.
	table := make([]int, 16)
	table[1] = 8
	table[2] = 2
	for _, c := range topo.CoresOf(0) {
		a.SetDemand(c, table)
	}
	rotate(a, 8)

	if got := a.SelectForPacket(0, 1); got != 8 {
		t.Fatalf("packet to cluster 1 uses %d wavelengths, want 8", got)
	}
	if got := a.SelectForPacket(0, 2); got != 2 {
		t.Fatalf("packet to cluster 2 uses %d wavelengths, want 2", got)
	}
	// No recorded demand: still at least the reserved wavelength.
	if got := a.SelectForPacket(0, 9); got != 1 {
		t.Fatalf("packet to undemanded cluster uses %d wavelengths, want 1", got)
	}
}

func TestSelectNeverEmpty(t *testing.T) {
	a := newAllocator(t, 64, 1, 8, 0)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			if a.SelectForPacket(topology.ClusterID(src), topology.ClusterID(dst)) == 0 {
				t.Fatalf("SelectForPacket(%d,%d) returned no wavelengths", src, dst)
			}
		}
	}
}

func TestTokenRotationCounter(t *testing.T) {
	a := newAllocator(t, 64, 1, 8, 0)
	rotate(a, 3)
	if got := a.Rotations(); got != 3 {
		t.Fatalf("rotations = %d, want 3", got)
	}
}

func TestTokenEnergyCharged(t *testing.T) {
	bundle, err := photonic.NewBundle(64)
	if err != nil {
		t.Fatal(err)
	}
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	ledger.StartMeasurement()
	a, err := NewAllocator(Config{
		Topology:           topology.Default(),
		Bundle:             bundle,
		TotalWavelengths:   64,
		ReservedPerCluster: 1,
		ClockHz:            2.5e9,
		Ledger:             ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Tick(0) // one hop: 48 bits of control traffic
	counts := ledger.Counts()
	if got := counts[photonic.EnergyLaunch]; got != 48 {
		t.Fatalf("token launched %d bits, want 48", got)
	}
	if got := counts[photonic.EnergyTuning]; got != 0 {
		t.Fatalf("token charged %d bits of tuning; control rings are statically tuned", got)
	}
}

func TestNewAllocatorValidation(t *testing.T) {
	bundle, err := photonic.NewBundle(64)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Default()
	base := Config{Topology: topo, Bundle: bundle, TotalWavelengths: 64, ReservedPerCluster: 1, ClockHz: 2.5e9}

	cfg := base
	cfg.ReservedPerCluster = 0
	if _, err := NewAllocator(cfg); err == nil {
		t.Error("zero reserve accepted")
	}
	cfg = base
	cfg.TotalWavelengths = 8 // cannot reserve 16
	if _, err := NewAllocator(cfg); err == nil {
		t.Error("budget below total reserve accepted")
	}
	cfg = base
	cfg.TotalWavelengths = 100 // beyond bundle capacity (64)
	if _, err := NewAllocator(cfg); err == nil {
		t.Error("budget beyond bundle capacity accepted")
	}
	cfg = base
	cfg.ClockHz = 0
	if _, err := NewAllocator(cfg); err == nil {
		t.Error("zero clock accepted")
	}
	cfg = base
	cfg.MaxAcquirePerVisit = -1
	if _, err := NewAllocator(cfg); err == nil {
		t.Error("negative per-visit bound accepted")
	}
}
