package core

import (
	"runtime"
	"testing"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// BenchmarkTokenTick measures one cycle of token circulation at the
// largest configuration (512 wavelengths), the allocator's hot path, once
// the allocation has converged. Contended: every cluster asks for its
// channel cap of 64 and the pool is exhausted, the point the benchmark
// module's core.token_tick_ns probe times. Settled: every cluster holds
// the 32 it asks for, the state of a uniform-traffic BW set 3 run between
// task remaps. Either way a visit changes nothing, and costs the same
// whatever the cluster count or the budget.
func BenchmarkTokenTick(b *testing.B) {
	for _, c := range []struct {
		name   string
		demand int
	}{{"Contended", 64}, {"Settled", 32}} {
		b.Run(c.name, func(b *testing.B) {
			a, now := converged(b, c.demand)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Tick(now + sim.Cycle(i))
			}
		})
	}
}

// converged builds the 512-wavelength allocator with every core asking
// demand toward every cluster and ticks it until the allocation has
// converged: 64 rotations acquire at most 8 wavelengths per visit. It
// returns the allocator and the next cycle.
func converged(tb testing.TB, demand int) (*Allocator, sim.Cycle) {
	tb.Helper()
	bundle, err := photonic.NewBundle(512)
	if err != nil {
		tb.Fatal(err)
	}
	topo := topology.Default()
	a, err := NewAllocator(Config{
		Topology:              topo,
		Bundle:                bundle,
		TotalWavelengths:      512,
		ReservedPerCluster:    1,
		MaxChannelWavelengths: 64,
		ClockHz:               2.5e9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	setDemand(a, demand)
	now := sim.Cycle(0)
	for ; now < sim.Cycle(64*topo.Clusters()*a.TransitCycles()); now++ {
		a.Tick(now)
	}
	return a, now
}

// setDemand has every core of a's topology ask demand toward every
// cluster.
func setDemand(a *Allocator, demand int) {
	topo := a.cfg.Topology
	table := make([]int, topo.Clusters())
	for d := range table {
		table[d] = demand
	}
	for core := 0; core < topo.Cores(); core++ {
		a.SetDemand(topology.CoreID(core), table)
	}
}

// TestTickAllocatesNothing: token circulation allocates nothing, whether
// the pool is contended or settled, and neither does a visit that moves
// a cluster's count: engines count wavelengths, so a move only rewrites
// the cluster's fixed-width acquired row. So while every cluster gives
// its dynamic wavelengths back, down to its reserved one, and while it
// takes them again, the ticks allocate nothing.
func TestTickAllocatesNothing(t *testing.T) {
	for _, demand := range []int{64, 32} {
		a, now := converged(t, demand)
		if n := mallocs(func() {
			for i := range 4096 {
				a.Tick(now + sim.Cycle(i))
			}
		}); n != 0 {
			t.Errorf("demand %d: 4,096 converged ticks made %d allocations, want 0", demand, n)
		}
	}
	a, now := converged(t, 64)
	// One cluster at most is visited a tick, so the total moves with it.
	counts := func() (sum int) {
		for c := range a.clusters {
			sum += a.AllocatedCount(topology.ClusterID(c))
		}
		return sum
	}
	for _, c := range []struct {
		demand, rotations, want int
	}{{0, 2, 1}, {32, 8, 32}} {
		setDemand(a, c.demand)
		var moves int
		n := mallocs(func() {
			for range c.rotations * a.clusters * a.TransitCycles() {
				before := counts()
				a.Tick(now)
				now++
				if counts() != before {
					moves++
				}
			}
		})
		if n != 0 || moves == 0 || a.AllocatedCount(0) != c.want {
			t.Errorf("demand %d: %d moves made %d allocations and left cluster 0 %d wavelengths; want none and %d", c.demand, moves, n, a.AllocatedCount(0), c.want)
		}
	}
}

// mallocs returns the heap allocations fn makes, run on one P.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkSetDemand measures the demand-table update path (runs on every
// task remap for every core).
func BenchmarkSetDemand(b *testing.B) {
	bundle, err := photonic.NewBundle(64)
	if err != nil {
		b.Fatal(err)
	}
	topo := topology.Default()
	a, err := NewAllocator(Config{
		Topology:           topo,
		Bundle:             bundle,
		TotalWavelengths:   64,
		ReservedPerCluster: 1,
		ClockHz:            2.5e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	table := make([]int, topo.Clusters())
	for d := range table {
		table[d] = 4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SetDemand(topology.CoreID(i%topo.Cores()), table)
	}
}
