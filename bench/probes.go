package main

import (
	"fmt"
	"time"

	"hetpnoc"
	"hetpnoc/internal/core"
	"hetpnoc/internal/packet"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/router"
	"hetpnoc/internal/serve/cache"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// A probe times a fixed number of calls into one small component in
// probeBatches batches and reports the median batch, in nanoseconds per
// call. The iteration counts are fixed so every commit does the same
// work; each probe costs a few milliseconds.
const probeBatches = 9

func probeNS(perBatch int, call func(i int) error) (float64, error) {
	batches := make([]float64, probeBatches)
	i := 0
	for b := range batches {
		t0 := time.Now()
		for n := 0; n < perBatch; n++ {
			if err := call(i); err != nil {
				return 0, err
			}
			i++
		}
		batches[b] = float64(time.Since(t0)) / float64(perBatch)
	}
	return median(batches), nil
}

// probeTokenTick times Allocator.Tick at the largest configuration (512
// wavelengths) with every cluster demanding its channel cap — the token
// DBA's worst case, the same point as the repository's
// BenchmarkTokenTick.
func probeTokenTick() (float64, error) {
	bundle, err := photonic.NewBundle(512)
	if err != nil {
		return 0, err
	}
	topo := topology.Default()
	a, err := core.NewAllocator(core.Config{
		Topology:              topo,
		Bundle:                bundle,
		TotalWavelengths:      512,
		ReservedPerCluster:    1,
		MaxChannelWavelengths: 64,
		ClockHz:               2.5e9,
	})
	if err != nil {
		return 0, err
	}
	table := make([]int, topo.Clusters())
	for d := range table {
		table[d] = 64
	}
	for c := 0; c < topo.Cores(); c++ {
		a.SetDemand(topology.CoreID(c), table)
	}
	return probeNS(20000, func(i int) error {
		a.Tick(sim.Cycle(i))
		return nil
	})
}

// probeRouterIdle times Router.Tick over an empty five-input arena
// router: the dominant router case at light load.
func probeRouterIdle() (float64, error) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	arena, err := router.NewArena(ledger, &occ)
	if err != nil {
		return 0, err
	}
	inputs := make([]*router.Port, 5)
	widths := make([]int, len(inputs))
	for i := range inputs {
		if inputs[i], err = arena.NewPort(16, 64); err != nil {
			return 0, err
		}
		widths[i] = 2
	}
	r, err := router.New("probe", inputs, widths, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		return 0, err
	}
	out, err := arena.NewPort(16, 64)
	if err != nil {
		return 0, err
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		return 0, err
	}
	return probeNS(50000, func(i int) error { return r.Tick(sim.Cycle(i)) })
}

// probeRouterStream times Router.Tick on a router forwarding one
// saturated flow: the input is kept primed and the output drained, as
// in the repository's BenchmarkRouterTickStreaming.
func probeRouterStream() (float64, error) {
	ledger := photonic.NewLedger(photonic.DefaultEnergyParams())
	var occ int64
	in, err := router.NewPort(16, 64, ledger, &occ)
	if err != nil {
		return 0, err
	}
	r, err := router.New("probe", []*router.Port{in}, []int{2}, func(packet.Flit) int { return 0 }, ledger)
	if err != nil {
		return 0, err
	}
	out, err := router.NewPort(16, 64, ledger, &occ)
	if err != nil {
		return 0, err
	}
	if _, err := r.AddOutput(out, 2, true); err != nil {
		return 0, err
	}
	pkt := &packet.Packet{ID: 1, Flits: 1 << 30, FlitBits: 32}
	vc, ok := in.AllocVC(pkt.ID)
	if !ok {
		return 0, fmt.Errorf("router probe: no free VC on a fresh port")
	}
	seq := 0
	return probeNS(20000, func(i int) error {
		for in.Space(vc) > 0 {
			fl := packet.Flit{Packet: pkt, Type: packet.Body, Seq: seq % 4096}
			if seq == 0 {
				fl.Type = packet.Header
			}
			if err := in.Enqueue(vc, fl, sim.Cycle(i)); err != nil {
				return err
			}
			seq++
		}
		if err := r.Tick(sim.Cycle(i)); err != nil {
			return err
		}
		for out.BufferedFlits() > 32 {
			if _, err := out.Pop(0); err != nil {
				return err
			}
		}
		return nil
	})
}

// cacheProbe holds the three result-cache timings.
type cacheProbe struct{ keyNS, getNS, putNS float64 }

// probeCache times cache.KeyOf on a canonical config, Get on a resident
// key and Put of a new key into a full default-capacity cache (so every
// Put also evicts).
func probeCache(seed uint64, res hetpnoc.Result) (cacheProbe, error) {
	const capacity = 1024
	store := cache.New(capacity)
	canon := make([][]byte, 3*capacity)
	keys := make([]cache.Key, len(canon))
	for i := range canon {
		b, err := serveConfig(simSeed(seed, streamTrace, uint64(i))).CanonicalJSON()
		if err != nil {
			return cacheProbe{}, err
		}
		canon[i] = b
		keys[i] = cache.KeyOf(b)
	}
	for _, k := range keys[:capacity] {
		store.Put(k, res)
	}
	var p cacheProbe
	var err error
	if p.keyNS, err = probeNS(2000, func(i int) error {
		keys[i%len(keys)] = cache.KeyOf(canon[i%len(canon)])
		return nil
	}); err != nil {
		return p, err
	}
	if p.getNS, err = probeNS(2000, func(i int) error {
		if _, ok := store.Get(keys[i%capacity]); !ok {
			return fmt.Errorf("cache probe: resident key %d missing", i%capacity)
		}
		return nil
	}); err != nil {
		return p, err
	}
	// probeBatches × 200 = 1,800 fresh keys, all beyond the resident set.
	if p.putNS, err = probeNS(200, func(i int) error {
		store.Put(keys[capacity+i], res)
		return nil
	}); err != nil {
		return p, err
	}
	return p, nil
}
