// Package topology describes the physical organization of the chip
// multiprocessor: cores grouped into clusters, each cluster served by one
// photonic router on a full photonic crossbar (Chapter 3.1 of the thesis).
//
// The thesis evaluates a 64-core, 16-cluster chip with 4 cores per
// cluster; cores within a cluster are connected all-to-all by electrical
// links and to the cluster's photonic router.
package topology

import "fmt"

// CoreID identifies a processing core, 0 <= CoreID < Cores.
type CoreID int

// ClusterID identifies a cluster (and its photonic router),
// 0 <= ClusterID < Clusters.
type ClusterID int

// Topology is an immutable description of the chip layout.
type Topology struct {
	cores       int
	clusterSize int
}

// New returns a topology with the given total core count and cluster
// size. It returns an error when the core count is not a positive
// multiple of the cluster size.
func New(cores, clusterSize int) (Topology, error) {
	if cores <= 0 || clusterSize <= 0 {
		return Topology{}, fmt.Errorf("topology: cores (%d) and cluster size (%d) must be positive", cores, clusterSize)
	}
	if cores%clusterSize != 0 {
		return Topology{}, fmt.Errorf("topology: cores (%d) must be a multiple of cluster size (%d)", cores, clusterSize)
	}
	return Topology{cores: cores, clusterSize: clusterSize}, nil
}

// Default returns the 64-core, 16-cluster topology of Table 3-3.
func Default() Topology {
	t, err := New(64, 4)
	if err != nil {
		panic(err) // statically correct arguments
	}
	return t
}

// Cores returns the total number of cores.
func (t Topology) Cores() int { return t.cores }

// Clusters returns the number of clusters (= photonic routers).
func (t Topology) Clusters() int { return t.cores / t.clusterSize }

// ClusterSize returns the number of cores per cluster.
func (t Topology) ClusterSize() int { return t.clusterSize }

// ClusterOf returns the cluster that core c belongs to.
func (t Topology) ClusterOf(c CoreID) ClusterID {
	return ClusterID(int(c) / t.clusterSize)
}

// LocalIndex returns the index of core c within its cluster,
// 0 <= index < ClusterSize.
func (t Topology) LocalIndex(c CoreID) int {
	return int(c) % t.clusterSize
}

// CoreAt returns the core at local index i of cluster cl.
func (t Topology) CoreAt(cl ClusterID, i int) CoreID {
	return CoreID(int(cl)*t.clusterSize + i)
}

// CoresOf returns the cores of cluster cl in local-index order.
func (t Topology) CoresOf(cl ClusterID) []CoreID {
	cores := make([]CoreID, t.clusterSize)
	for i := range cores {
		cores[i] = t.CoreAt(cl, i)
	}
	return cores
}

// ValidCore reports whether c is a core of this topology.
func (t Topology) ValidCore(c CoreID) bool {
	return c >= 0 && int(c) < t.cores
}
