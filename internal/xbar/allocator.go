// Package xbar implements the reservation-assisted single-write
// multiple-read (R-SWMR) photonic crossbar shared by both architectures
// (§2.2.1, §3.3): per-cluster write data channels, the dedicated
// reservation waveguides, the transmit engine that serializes packets onto
// DWDM wavelengths, and the receive engine that gates demodulators for the
// duration of a packet.
//
// The difference between the Firefly baseline and d-HetPNoC is the
// wavelength allocation policy, abstracted as the Allocator interface; the
// dynamic token-based allocator lives in internal/core.
package xbar

import (
	"fmt"

	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// Allocator decides which data wavelengths each cluster's write channel
// owns, and how many of them a given packet uses. The engines only count
// wavelengths: a packet streams on the first SelectForPacket of its
// channel's wavelengths, and the IDs matter only to tests and
// diagnostics.
type Allocator interface {
	// Name identifies the policy ("firefly-static", "token-dba").
	Name() string

	// Tick advances protocol state by one cycle (token circulation for
	// the dynamic allocator; a no-op for the static one).
	Tick(now sim.Cycle)

	// AllocatedCount returns how many wavelengths cluster c's write
	// channel currently owns.
	AllocatedCount(c topology.ClusterID) int

	// Allocated returns those wavelengths in a new slice, for tests and
	// diagnostics.
	Allocated(c topology.ClusterID) []photonic.WavelengthID

	// SelectForPacket returns how many of the allocated wavelengths a
	// packet from src to dst uses, based on the demand toward dst
	// (§3.3.1). It is never 0.
	SelectForPacket(src, dst topology.ClusterID) int

	// SetDemand records that the application on core reports a
	// wavelength demand toward each destination cluster (the demand
	// table a core sends its photonic router on a task change, §3.2.1).
	SetDemand(core topology.CoreID, demand []int)
}

// Static is the Firefly baseline allocation: the aggregate wavelength
// budget divided uniformly, each cluster permanently owning an equal slice
// of its dedicated write waveguide. Every packet uses the channel's full
// wavelength set, regardless of the flow's bandwidth requirement — the
// inefficiency §2.2.1 calls out.
type Static struct {
	bundle     photonic.WaveguideBundle
	perCluster int
}

var _ Allocator = (*Static)(nil)

// NewStatic divides totalWavelengths evenly over the chip's clusters.
func NewStatic(bundle photonic.WaveguideBundle, totalWavelengths int) (*Static, error) {
	clusters := topology.Default().Clusters()
	if totalWavelengths < clusters {
		return nil, fmt.Errorf("xbar: %d wavelengths cannot cover %d clusters", totalWavelengths, clusters)
	}
	if totalWavelengths%clusters != 0 {
		return nil, fmt.Errorf("xbar: %d wavelengths do not divide evenly over %d clusters", totalWavelengths, clusters)
	}
	return &Static{bundle: bundle, perCluster: totalWavelengths / clusters}, nil
}

// Name implements Allocator.
func (s *Static) Name() string { return "firefly-static" }

// Tick implements Allocator.
func (s *Static) Tick(sim.Cycle) {}

// AllocatedCount implements Allocator.
func (s *Static) AllocatedCount(topology.ClusterID) int { return s.perCluster }

// Allocated implements Allocator: cluster c owns the c-th run of
// consecutive slots.
func (s *Static) Allocated(c topology.ClusterID) []photonic.WavelengthID {
	ids := make([]photonic.WavelengthID, s.perCluster)
	for i := range ids {
		ids[i] = s.bundle.IDForSlot(int(c)*s.perCluster + i)
	}
	return ids
}

// SelectForPacket implements Allocator: Firefly always transmits on the
// channel's full wavelength set.
func (s *Static) SelectForPacket(topology.ClusterID, topology.ClusterID) int { return s.perCluster }

// SetDemand implements Allocator; the static allocation ignores demand.
func (s *Static) SetDemand(topology.CoreID, []int) {}
