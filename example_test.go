package hetpnoc_test

import (
	"fmt"
	"log"

	"hetpnoc"
)

// Simulate d-HetPNoC under uniform-random traffic at the thesis's default
// operating point and print the headline metrics: the smallest end-to-end
// use of the public API.
func ExampleRun() {
	res, err := hetpnoc.Run(hetpnoc.Config{
		Architecture: hetpnoc.DHetPNoC,
		BandwidthSet: 1,                        // 64 wavelengths, 64x32 b packets
		Traffic:      hetpnoc.UniformTraffic(), // all cores, equal rates
		Cycles:       10000,                    // Table 3-3
		WarmupCycles: 1000,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Simulated %s on bandwidth set %s under %s traffic\n",
		res.Architecture, res.BandwidthSet, res.Traffic)
	fmt.Printf("  offered:    %8.1f Gb/s aggregate\n", res.OfferedGbps)
	fmt.Printf("  delivered:  %8.1f Gb/s (%.2f Gb/s per core)\n", res.DeliveredGbps, res.PerCoreGbps)
	fmt.Printf("  energy:     %8.1f pJ per message\n", res.EnergyPerMessagePJ)
	fmt.Printf("  latency:    %8.1f cycles on average\n", res.AvgLatencyCycles)
	fmt.Printf("  wavelengths per cluster write channel: %v\n", res.AllocatedWavelengths)
	// Output:
	// Simulated d-hetpnoc on bandwidth set BW1 under uniform traffic
	//   offered:       800.0 Gb/s aggregate
	//   delivered:     795.4 Gb/s (12.43 Gb/s per core)
	//   energy:       9331.8 pJ per message
	//   latency:       300.5 cycles on average
	//   wavelengths per cluster write channel: [4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4]
}

// The core claim of the thesis in miniature (Figures 3-3a and 3-4a): as
// traffic skew grows, d-HetPNoC's dynamic bandwidth allocation delivers
// more bandwidth at lower energy per message than Firefly's uniform static
// allocation, while the two deliver the same under uniform-random traffic.
// The eight runs are one batch; each result equals a solo Run of its
// config.
func ExampleRunBatch() {
	workloads := []struct {
		name    string
		traffic hetpnoc.Traffic
	}{
		{"uniform", hetpnoc.UniformTraffic()},
		{"skewed1", hetpnoc.SkewedTraffic(1)},
		{"skewed2", hetpnoc.SkewedTraffic(2)},
		{"skewed3", hetpnoc.SkewedTraffic(3)},
	}
	var cfgs []hetpnoc.Config
	for _, w := range workloads {
		for _, arch := range []hetpnoc.Architecture{hetpnoc.Firefly, hetpnoc.DHetPNoC} {
			cfgs = append(cfgs, hetpnoc.Config{
				Architecture: arch,
				BandwidthSet: 1,
				Traffic:      w.traffic,
				Seed:         1,
			})
		}
	}
	results, err := hetpnoc.RunBatch(cfgs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Firefly vs d-HetPNoC, bandwidth set 1 (64 wavelengths)")
	fmt.Printf("%-9s %14s %14s %9s %12s %12s %9s\n",
		"traffic", "firefly Gb/s", "d-Het Gb/s", "gain", "firefly EPM", "d-Het EPM", "saving")
	for i, w := range workloads {
		ff, dh := results[2*i], results[2*i+1]
		fmt.Printf("%-9s %14.1f %14.1f %+8.1f%% %12.1f %12.1f %+8.1f%%\n",
			w.name,
			ff.DeliveredGbps, dh.DeliveredGbps, (dh.DeliveredGbps/ff.DeliveredGbps-1)*100,
			ff.EnergyPerMessagePJ, dh.EnergyPerMessagePJ, (dh.EnergyPerMessagePJ/ff.EnergyPerMessagePJ-1)*100)
	}
	// Output:
	// Firefly vs d-HetPNoC, bandwidth set 1 (64 wavelengths)
	// traffic     firefly Gb/s     d-Het Gb/s      gain  firefly EPM    d-Het EPM    saving
	// uniform            795.4          795.4     +0.0%       9254.8       9331.8     +0.8%
	// skewed1            458.8          600.5    +30.9%      15438.5       9725.8    -37.0%
	// skewed2            558.5          789.5    +41.3%      21009.6      12200.7    -41.9%
	// skewed3            658.2          796.2    +21.0%      24886.4      19042.8    -23.5%
}

// The Figure 1-1 motivation: which GPU benchmarks speed up when the
// GPU-memory link carries 1024 B flits instead of 32 B ones.
func ExampleGPUFlitSizeSpeedups() {
	speedups, err := hetpnoc.GPUFlitSizeSpeedups()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 1-1: GPU speedup with 1024 B flits over the 32 B baseline")
	for _, s := range speedups {
		marker := ""
		if s.SpeedupPct > 10 {
			marker = "  <- bandwidth-hungry"
		}
		fmt.Printf("  %-15s (%s, %d kernels): %6.2f%%%s\n",
			s.Benchmark, s.Suite, s.KernelLaunches, s.SpeedupPct, marker)
	}
	// Output:
	// Figure 1-1: GPU speedup with 1024 B flits over the 32 B baseline
	//   BFS             (CUDA SDK, 13 kernels):  62.88%  <- bandwidth-hungry
	//   MUM             (CUDA SDK, 2 kernels):  42.92%  <- bandwidth-hungry
	//   CP              (CUDA SDK, 8 kernels):   0.49%
	//   RAY             (CUDA SDK, 1 kernels):   0.78%
	//   LPS             (CUDA SDK, 100 kernels):   0.58%
	//   LIB             (CUDA SDK, 2 kernels):   0.39%
	//   STO             (CUDA SDK, 1 kernels):   0.24%
	//   NN              (CUDA SDK, 4 kernels):   0.68%
	//   backprop        (Rodinia, 2 kernels):   0.83%
	//   hotspot         (Rodinia, 1 kernels):   0.44%
	//   srad            (Rodinia, 4 kernels):   0.54%
	//   streamcluster   (Rodinia, 650 kernels):   6.72%
}

// The §3.4.2 real-application scenario: the GPU benchmarks MUM, BFS, CP,
// RAY and LPS mapped onto 12 clusters beside 4 memory clusters, with
// core-to-memory demands from the GPGPU profile model, on both
// architectures.
func ExampleRun_realApplication() {
	fmt.Println("Real-application traffic (MUM x20, BFS x4, CP x4, RAY x4, LPS x16 cores + 4 memory clusters):")
	for _, arch := range []hetpnoc.Architecture{hetpnoc.Firefly, hetpnoc.DHetPNoC} {
		res, err := hetpnoc.Run(hetpnoc.Config{
			Architecture: arch,
			BandwidthSet: 1,
			Traffic:      hetpnoc.RealAppTraffic(),
			Seed:         1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s delivered %7.1f Gb/s (offered %.1f), EPM %8.1f pJ, wavelengths %v\n",
			res.Architecture, res.DeliveredGbps, res.OfferedGbps, res.EnergyPerMessagePJ,
			res.AllocatedWavelengths)
	}
	fmt.Println("\nThe memory clusters (last four) and the MUM/BFS clusters attract the")
	fmt.Println("dynamic wavelengths; Firefly gives every cluster the same four.")
	// Output:
	// Real-application traffic (MUM x20, BFS x4, CP x4, RAY x4, LPS x16 cores + 4 memory clusters):
	//   firefly    delivered   621.5 Gb/s (offered 1062.5), EPM  22428.3 pJ, wavelengths [4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4]
	//   d-hetpnoc  delivered   794.5 Gb/s (offered 1062.5), EPM  15566.7 pJ, wavelengths [6 6 6 6 5 5 1 1 2 2 2 2 5 5 5 5]
	//
	// The memory clusters (last four) and the MUM/BFS clusters attract the
	// dynamic wavelengths; Firefly gives every cluster the same four.
}

// Watch the dynamic bandwidth allocation at work: the run starts under
// uniform traffic (every cluster holds an equal share of the wavelength
// budget), then the task mapping changes to skewed 3 at cycle 4000, and
// the token-passing allocator reshapes the allocation over the following
// rotations, the reconfiguration path of the thesis's §3.2. The probe
// records the allocation every 200 cycles; a row is printed where it
// changed.
func ExampleConfig_remaps() {
	res, err := hetpnoc.Run(hetpnoc.Config{
		Architecture: hetpnoc.DHetPNoC,
		BandwidthSet: 1,
		Traffic:      hetpnoc.UniformTraffic(),
		Cycles:       8000,
		WarmupCycles: 1000,
		Seed:         1,
		Remaps:       []hetpnoc.TrafficRemap{{AtCycle: 4000, Traffic: hetpnoc.SkewedTraffic(3)}},
		ProbeEvery:   200,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("cycle | token rotations | wavelengths per cluster write channel")
	fmt.Println("------+-----------------+--------------------------------------")
	var last string
	p := res.Probe
	for i, row := range p.Rows {
		line := fmt.Sprintf("%v", p.AllocatedWavelengths[i*p.Clusters:(i+1)*p.Clusters])
		if line == last {
			continue
		}
		last = line
		fmt.Printf("%5d | %15d | %s\n", row.Cycle, row.TokenRotations, line)
	}
	fmt.Printf("\nFinal allocation: %v\n", res.AllocatedWavelengths)
	fmt.Printf("Delivered %.1f Gb/s across the remap; %d token rotations total.\n",
		res.DeliveredGbps, res.TokenRotations)
	fmt.Println("After the remap, the high-demand clusters (which want 8 wavelengths each)")
	fmt.Println("split the contended pool fairly over successive token rotations, while")
	fmt.Println("low-demand clusters fall back toward their reserved minimum of 1.")
	// Output:
	// cycle | token rotations | wavelengths per cluster write channel
	// ------+-----------------+--------------------------------------
	//   200 |              12 | [4 4 4 4 4 4 4 4 4 4 4 4 4 4 4 4]
	//  4200 |             262 | [5 5 5 5 5 5 5 5 5 5 5 4 2 1 1 1]
	//
	// Final allocation: [5 5 5 5 5 5 5 5 5 5 5 4 2 1 1 1]
	// Delivered 776.1 Gb/s across the remap; 500 token rotations total.
	// After the remap, the high-demand clusters (which want 8 wavelengths each)
	// split the contended pool fairly over successive token rotations, while
	// low-demand clusters fall back toward their reserved minimum of 1.
}

// All three modeled architectures (the Firefly crossbar baseline, the
// proposed d-HetPNoC and the related-work circuit-switched torus of
// §2.1.3) under the same skewed workload. The torus's per-link full-DWDM
// provisioning gives it much more photonic hardware than the
// budget-normalized crossbars, so this is a protocol comparison, not an
// equal-area one.
func ExampleRun_architectures() {
	fmt.Println("Three architectures, bandwidth set 1, skewed 2 traffic:")
	fmt.Printf("%-12s %12s %14s %12s %s\n", "arch", "Gb/s", "EPM pJ", "p99 lat", "notes")
	for _, arch := range []hetpnoc.Architecture{hetpnoc.Firefly, hetpnoc.DHetPNoC, hetpnoc.TorusPNoC} {
		res, err := hetpnoc.Run(hetpnoc.Config{
			Architecture: arch,
			BandwidthSet: 1,
			Traffic:      hetpnoc.SkewedTraffic(2),
			Seed:         1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %12.1f %14.1f %10d c",
			res.Architecture, res.DeliveredGbps, res.EnergyPerMessagePJ, res.P99LatencyCycles)
		switch {
		case res.TorusPathsSetUp > 0:
			fmt.Printf("  %d circuits, %d blocked setups", res.TorusPathsSetUp, res.TorusSetupsBlocked)
		case res.TokenRotations > 0:
			fmt.Printf("  %d token rotations", res.TokenRotations)
		}
		fmt.Println()
	}
	// Output:
	// Three architectures, bandwidth set 1, skewed 2 traffic:
	// arch                 Gb/s         EPM pJ      p99 lat notes
	// firefly             558.5        21009.6       6008 c
	// d-hetpnoc           789.5        12200.7       2761 c  625 token rotations
	// torus-pnoc          856.1        10269.3       2192 c  1632 circuits, 683 blocked setups
}

// Why the thesis picks a crossbar: the [23] loss argument, quantified.
// Crossings and PSE hops accumulate crosstalk with every hop of a torus
// path; the crossbar's only crosstalk sources are off-resonance rings.
func ExampleCrossbarLinkBudget() {
	xbar, err := hetpnoc.CrossbarLinkBudget()
	if err != nil {
		log.Fatal(err)
	}
	torus, err := hetpnoc.TorusLinkBudget()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Why the thesis picks a crossbar (the [23] loss argument, quantified):")
	fmt.Printf("  crossbar worst path: %5.2f dB loss, %5.2f dB crosstalk -> %6.4f mW/wavelength\n",
		xbar.TotalDB, xbar.CrosstalkDB, xbar.LaserPowerMW)
	fmt.Printf("  torus worst path:    %5.2f dB loss, %5.2f dB crosstalk -> %6.4f mW/wavelength\n",
		torus.TotalDB, torus.CrosstalkDB, torus.LaserPowerMW)
	fmt.Println("  (crossings and PSE hops accumulate crosstalk with every hop; the")
	fmt.Println("  crossbar's only crosstalk sources are off-resonance rings)")
	// Output:
	// Why the thesis picks a crossbar (the [23] loss argument, quantified):
	//   crossbar worst path:  8.10 dB loss,  0.60 dB crosstalk -> 0.0741 mW/wavelength
	//   torus worst path:     6.60 dB loss,  6.80 dB crosstalk -> 0.2188 mW/wavelength
	//   (crossings and PSE hops accumulate crosstalk with every hop; the
	//   crossbar's only crosstalk sources are off-resonance rings)
}

// The §3.4.3 analytic electro-optic area model at 64 data wavelengths:
// device area and the modulator and detector counts of Equations 5-24.
// The sweep over 64-512 wavelengths is Figure 3-6 of `sweep -fig 3-6`.
func ExampleEstimateArea() {
	est, err := hetpnoc.EstimateArea(64)
	if err != nil {
		log.Fatal(err)
	}
	mm2 := est.DHetPNoCAreaMM2.Unit()
	fmt.Printf("data wavelengths     %d\n", est.DataWavelengths)
	fmt.Printf("d-HetPNoC            %.3f %s (%d modulators, %d detectors)\n",
		est.DHetPNoCAreaMM2, mm2, est.DHetPNoCModulators, est.DHetPNoCDetectors)
	fmt.Printf("Firefly              %.3f %s (%d modulators, %d detectors)\n",
		est.FireflyAreaMM2, mm2, est.FireflyModulators, est.FireflyDetectors)
	fmt.Printf("d-HetPNoC overhead   %.1f%%\n", est.OverheadPct)
	// Output:
	// data wavelengths     64
	// d-HetPNoC            1.608 mm^2 (3072 modulators, 17408 detectors)
	// Firefly              1.367 mm^2 (1088 modulators, 16320 detectors)
	// d-HetPNoC overhead   17.6%
}
