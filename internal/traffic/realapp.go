package traffic

import (
	"hetpnoc/internal/gpgpu"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// RealApp is the real-application traffic scenario of §3.4.2: the GPU
// benchmarks MUM, BFS, CP, RAY and LPS are mapped to 20, 4, 4, 4 and 16
// cores (12 clusters), and the remaining 4 clusters hold the memory that
// backs them. GPU clusters issue requests to the memory clusters at the
// bandwidth their gpgpu profile demands; memory clusters return response
// traffic to the requesters, weighted by demand.
type RealApp struct{}

// Name implements Pattern.
func (RealApp) Name() string { return "realapp" }

// Assign implements Pattern.
func (RealApp) Assign(set BandwidthSet) (Assignment, error) {
	placements, err := gpgpu.RealAppPlacements()
	if err != nil {
		return Assignment{}, err
	}

	// The placements fill whole clusters and leave at least one for
	// memory (TestRealAppPlacementsMatchSection3_4_2).
	gpuCores := 0
	for _, p := range placements {
		gpuCores += p.Cores
	}
	memClusters := (chip.Cores() - gpuCores) / chip.ClusterSize()
	firstMemCluster := chip.Clusters() - memClusters

	// Cap per-cluster demand at the top bandwidth class of the set: the
	// photonic provisioning cannot express more (§3.4.1, Table 3-3).
	capGbps := set.ClassGbps[0]

	// clusterDemand[cl] is the per-cluster request bandwidth of the app
	// on cluster cl (zero for memory clusters, filled below).
	clusterDemand := make([]float64, chip.Clusters())
	cluster := 0
	for _, p := range placements {
		demand := p.Profile.MemoryDemandGbps
		if demand > capGbps {
			demand = capGbps
		}
		for i := 0; i < p.Cores/chip.ClusterSize(); i++ {
			clusterDemand[cluster] = demand
			cluster++
		}
	}

	// Memory clusters return response traffic equal to the aggregate
	// request load, split evenly among them (interleaved addressing).
	var totalRequest float64
	for _, d := range clusterDemand[:firstMemCluster] {
		totalRequest += d
	}
	memDemand := totalRequest / float64(memClusters)
	if memDemand > capGbps {
		memDemand = capGbps
	}
	for cl := firstMemCluster; cl < chip.Clusters(); cl++ {
		clusterDemand[cl] = memDemand
	}

	// Weighted sampler for memory responses: pick a GPU core with
	// probability proportional to its cluster's request demand.
	gpuWeights := make([]float64, 0, gpuCores)
	gpuTargets := make([]topology.CoreID, 0, gpuCores)
	for cl := 0; cl < firstMemCluster; cl++ {
		for _, core := range chip.CoresOf(topology.ClusterID(cl)) {
			gpuWeights = append(gpuWeights, clusterDemand[cl])
			gpuTargets = append(gpuTargets, core)
		}
	}
	var weightSum float64
	for _, w := range gpuWeights {
		weightSum += w
	}

	pickGPUCore := func(rng *sim.RNG) topology.CoreID {
		x := rng.Float64() * weightSum
		for i, w := range gpuWeights {
			x -= w
			if x < 0 {
				return gpuTargets[i]
			}
		}
		return gpuTargets[len(gpuTargets)-1]
	}
	pickMemCore := func(rng *sim.RNG) topology.CoreID {
		cl := topology.ClusterID(firstMemCluster + rng.Intn(memClusters))
		return chip.CoreAt(cl, rng.Intn(chip.ClusterSize()))
	}

	memClusterIDs := make([]topology.ClusterID, 0, memClusters)
	for cl := firstMemCluster; cl < chip.Clusters(); cl++ {
		memClusterIDs = append(memClusterIDs, topology.ClusterID(cl))
	}
	gpuClusterIDs := make([]topology.ClusterID, 0, firstMemCluster)
	for cl := 0; cl < firstMemCluster; cl++ {
		gpuClusterIDs = append(gpuClusterIDs, topology.ClusterID(cl))
	}

	cores := make([]CoreProfile, chip.Cores())
	for c := range cores {
		cl := chip.ClusterOf(topology.CoreID(c))
		demand := clusterDemand[cl]
		profile := CoreProfile{
			RateGbps:   demand / float64(chip.ClusterSize()),
			DemandGbps: demand,
		}
		if int(cl) < firstMemCluster {
			profile.PickDest = pickMemCore
			profile.DemandDests = memClusterIDs
		} else {
			profile.PickDest = pickGPUCore
			profile.DemandDests = gpuClusterIDs
		}
		cores[c] = profile
	}
	return Assignment{Name: "realapp", Cores: cores}, nil
}
