package core

import (
	"fmt"

	"hetpnoc/internal/photonic"
)

// AllocatorSnapshot is a checkpoint of the allocator's full mutable
// state: ownership, per-cluster tables and token circulation. The static
// configuration (reserved slots, token sizing, timeouts) is not saved —
// a snapshot only restores onto the allocator it was taken from.
type AllocatorSnapshot struct {
	owner    []int
	acquired [][]int
	// ids shares the inner slices with the live allocator: the ID cache
	// is replaced, never mutated in place (see process), so the slices
	// captured here stay valid however far the run advances.
	ids     [][]photonic.WavelengthID
	demand  [][][]int
	request [][]int
	current [][]int

	pos         int
	transitLeft int
	rotations   int64

	tokenDemand   []int
	tokenLost     bool
	lostForCycles int
	losses        int64
	regenerations int64
}

// Snapshot copies the allocator's mutable state.
func (a *Allocator) Snapshot() *AllocatorSnapshot {
	s := &AllocatorSnapshot{
		owner:         append([]int(nil), a.owner...),
		acquired:      copyRows(a.acquired),
		ids:           append([][]photonic.WavelengthID(nil), a.ids...),
		demand:        make([][][]int, len(a.demand)),
		request:       copyRows(a.request),
		current:       copyRows(a.current),
		pos:           a.pos,
		transitLeft:   a.transitLeft,
		rotations:     a.rotations,
		tokenDemand:   append([]int(nil), a.tokenDemand...),
		tokenLost:     a.tokenLost,
		lostForCycles: a.lostForCycles,
		losses:        a.losses,
		regenerations: a.regenerations,
	}
	for c := range a.demand {
		s.demand[c] = copyRows(a.demand[c])
	}
	return s
}

// Restore rewinds the allocator to a snapshot, leaving the snapshot
// intact for repeated restores.
func (a *Allocator) Restore(s *AllocatorSnapshot) error {
	if len(s.owner) != len(a.owner) || len(s.acquired) != len(a.acquired) {
		return fmt.Errorf("core: snapshot shape does not match allocator (%d/%d slots, %d/%d clusters)",
			len(s.owner), len(a.owner), len(s.acquired), len(a.acquired))
	}
	copy(a.owner, s.owner)
	for c := range a.acquired {
		a.acquired[c] = append(a.acquired[c][:0], s.acquired[c]...)
		a.ids[c] = s.ids[c]
		copy(a.request[c], s.request[c])
		copy(a.current[c], s.current[c])
		for i := range a.demand[c] {
			copy(a.demand[c][i], s.demand[c][i])
		}
	}
	a.pos = s.pos
	a.transitLeft = s.transitLeft
	a.rotations = s.rotations
	copy(a.tokenDemand, s.tokenDemand)
	a.tokenLost = s.tokenLost
	a.lostForCycles = s.lostForCycles
	a.losses = s.losses
	a.regenerations = s.regenerations
	a.resetDerived()
	return nil
}

// copyRows deep-copies a slice of int rows.
func copyRows(rows [][]int) [][]int {
	out := make([][]int, len(rows))
	for i, r := range rows {
		out[i] = append([]int(nil), r...)
	}
	return out
}
