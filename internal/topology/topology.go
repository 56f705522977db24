// Package topology describes the physical organization of the chip
// multiprocessor: cores grouped into clusters, each cluster served by one
// photonic router on a full photonic crossbar (Chapter 3.1 of the thesis).
//
// The thesis evaluates a 64-core, 16-cluster chip with 4 cores per
// cluster; cores within a cluster are connected all-to-all by electrical
// links and to the cluster's photonic router.
package topology

// CoreID identifies a processing core, 0 <= CoreID < Cores.
type CoreID int

// ClusterID identifies a cluster (and its photonic router),
// 0 <= ClusterID < Clusters.
type ClusterID int

// The chip of Table 3-3.
const (
	cores       = 64
	clusterSize = 4
)

// Topology is the chip of Table 3-3: 64 cores in 16 clusters of 4. It
// holds nothing, so its zero value is the chip.
type Topology struct{}

// Default returns the 64-core, 16-cluster topology of Table 3-3.
func Default() Topology { return Topology{} }

// Cores returns the total number of cores.
func (Topology) Cores() int { return cores }

// Clusters returns the number of clusters (= photonic routers).
func (Topology) Clusters() int { return cores / clusterSize }

// ClusterSize returns the number of cores per cluster.
func (Topology) ClusterSize() int { return clusterSize }

// ClusterOf returns the cluster that core c belongs to.
func (Topology) ClusterOf(c CoreID) ClusterID {
	return ClusterID(int(c) / clusterSize)
}

// LocalIndex returns the index of core c within its cluster,
// 0 <= index < ClusterSize.
func (Topology) LocalIndex(c CoreID) int {
	return int(c) % clusterSize
}

// CoreAt returns the core at local index i of cluster cl.
func (Topology) CoreAt(cl ClusterID, i int) CoreID {
	return CoreID(int(cl)*clusterSize + i)
}

// CoresOf returns the cores of cluster cl in local-index order.
func (t Topology) CoresOf(cl ClusterID) []CoreID {
	ids := make([]CoreID, clusterSize)
	for i := range ids {
		ids[i] = t.CoreAt(cl, i)
	}
	return ids
}

// ValidCore reports whether c is a core of this topology.
func (Topology) ValidCore(c CoreID) bool {
	return c >= 0 && int(c) < cores
}
