package core

import (
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
			bundle, err := photonic.NewBundle(512)
			if err != nil {
				b.Fatal(err)
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
				b.Fatal(err)
			}
			table := make([]int, topo.Clusters())
			for d := range table {
				table[d] = c.demand
			}
			for core := 0; core < topo.Cores(); core++ {
				a.SetDemand(topology.CoreID(core), table)
			}
			// Converge: 64 rotations acquire at most 8 wavelengths per visit.
			now := sim.Cycle(0)
			for ; now < sim.Cycle(64*topo.Clusters()*a.TransitCycles()); now++ {
				a.Tick(now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Tick(now + sim.Cycle(i))
			}
		})
	}
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
