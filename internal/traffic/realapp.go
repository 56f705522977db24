package traffic

import (
	"fmt"

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
func (RealApp) Assign(topo topology.Topology, set BandwidthSet) (Assignment, error) {
	if err := set.Validate(); err != nil {
		return Assignment{}, err
	}
	placements, err := gpgpu.RealAppPlacements()
	if err != nil {
		return Assignment{}, err
	}

	gpuCores := 0
	for _, p := range placements {
		if p.Cores%topo.ClusterSize() != 0 {
			return Assignment{}, fmt.Errorf("traffic: %s spans %d cores, not a whole number of clusters",
				p.Profile.Name, p.Cores)
		}
		gpuCores += p.Cores
	}
	memCores := topo.Cores() - gpuCores
	if memCores < topo.ClusterSize() {
		return Assignment{}, fmt.Errorf("traffic: placements use %d of %d cores, leaving no memory cluster",
			gpuCores, topo.Cores())
	}
	memClusters := memCores / topo.ClusterSize()
	firstMemCluster := topo.Clusters() - memClusters

	// Cap per-cluster demand at the top bandwidth class of the set: the
	// photonic provisioning cannot express more (§3.4.1, Table 3-3).
	capGbps := set.ClassGbps[0]

	// clusterDemand[cl] is the per-cluster request bandwidth of the app
	// on cluster cl (zero for memory clusters, filled below).
	clusterDemand := make([]float64, topo.Clusters())
	cluster := 0
	for _, p := range placements {
		demand := p.Profile.MemoryDemandGbps
		if demand > capGbps {
			demand = capGbps
		}
		for i := 0; i < p.Cores/topo.ClusterSize(); i++ {
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
	for cl := firstMemCluster; cl < topo.Clusters(); cl++ {
		clusterDemand[cl] = memDemand
	}

	// Weighted sampler for memory responses: pick a GPU core with
	// probability proportional to its cluster's request demand.
	gpuWeights := make([]float64, 0, gpuCores)
	gpuTargets := make([]topology.CoreID, 0, gpuCores)
	for cl := 0; cl < firstMemCluster; cl++ {
		for _, core := range topo.CoresOf(topology.ClusterID(cl)) {
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
		return topo.CoreAt(cl, rng.Intn(topo.ClusterSize()))
	}

	memClusterIDs := make([]topology.ClusterID, 0, memClusters)
	for cl := firstMemCluster; cl < topo.Clusters(); cl++ {
		memClusterIDs = append(memClusterIDs, topology.ClusterID(cl))
	}
	gpuClusterIDs := make([]topology.ClusterID, 0, firstMemCluster)
	for cl := 0; cl < firstMemCluster; cl++ {
		gpuClusterIDs = append(gpuClusterIDs, topology.ClusterID(cl))
	}

	cores := make([]CoreProfile, topo.Cores())
	for c := range cores {
		cl := topo.ClusterOf(topology.CoreID(c))
		demand := clusterDemand[cl]
		profile := CoreProfile{
			RateGbps:   demand / float64(topo.ClusterSize()),
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
