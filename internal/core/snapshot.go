package core

import "fmt"

// AllocatorSnapshot is a checkpoint of the allocator: a copy of its
// state. The static configuration (reserved slots, token sizing,
// timeouts) is not saved — a snapshot only restores onto the allocator it
// was taken from.
type AllocatorSnapshot = state

// Snapshot copies the allocator's state into dst, reusing its arrays.
func (a *Allocator) Snapshot(dst *AllocatorSnapshot) { dst.copyFrom(&a.state) }

// Restore rewinds the allocator to a snapshot, leaving the snapshot
// intact for repeated restores, and rebuilds the caches derived from it.
func (a *Allocator) Restore(s *AllocatorSnapshot) error {
	if len(s.owner) != len(a.owner) || len(s.acquired) != len(a.acquired) {
		return fmt.Errorf("core: snapshot shape does not match allocator (%d/%d slots, %d/%d acquired entries)",
			len(s.owner), len(a.owner), len(s.acquired), len(a.acquired))
	}
	a.state.copyFrom(s)
	a.resetDerived()
	return nil
}
