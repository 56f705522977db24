package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"hetpnoc/internal/event"
	"hetpnoc/internal/photonic"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

// TestInvariantsUnderRandomProtocolActivity is the allocator's main
// property test: any sequence of demand updates interleaved with token
// circulation preserves the structural invariants — no wavelength is
// double-owned, every cluster keeps its reserved minimum, caps and budget
// hold, and the ID caches stay consistent.
//
// The property test samples random activity on purpose; quick prints
// the counterexample and no entropy reaches simulator state.
func TestInvariantsUnderRandomProtocolActivity(t *testing.T) {
	topo := topology.Default()

	run := func(seed uint64, totalSel uint8, steps uint8) bool {
		totals := []int{64, 256, 512}
		total := totals[int(totalSel)%len(totals)]
		bundle, err := photonic.NewBundle(total)
		if err != nil {
			return false
		}
		a, err := NewAllocator(Config{
			Topology:              topo,
			Bundle:                bundle,
			TotalWavelengths:      total,
			ReservedPerCluster:    1,
			MaxChannelWavelengths: total / 8,
			ClockHz:               2.5e9,
		})
		if err != nil {
			return false
		}

		rng := sim.NewRNG(seed)
		now := sim.Cycle(0)
		for step := 0; step < int(steps)+50; step++ {
			switch rng.Intn(3) {
			case 0:
				// Random demand update from a random core.
				core := topology.CoreID(rng.Intn(topo.Cores()))
				table := make([]int, topo.Clusters())
				self := topo.ClusterOf(core)
				for d := range table {
					if topology.ClusterID(d) != self {
						table[d] = rng.Intn(total/4 + 1)
					}
				}
				a.SetDemand(core, table)
			case 1:
				// A burst of token circulation.
				for i := 0; i < rng.Intn(40)+1; i++ {
					a.Tick(now)
					now++
				}
			case 2:
				// Packet selections must always be non-empty and within
				// the source's allocation.
				src := topology.ClusterID(rng.Intn(topo.Clusters()))
				dst := topology.ClusterID(rng.Intn(topo.Clusters()))
				if src == dst {
					continue
				}
				use := a.SelectForPacket(src, dst)
				if use == 0 || use > a.AllocatedCount(src) {
					return false
				}
			}
			if err := a.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}

	if err := quick.Check(run, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocationConservesWavelengths: after any demand pattern and full
// convergence, the sum of allocations plus free wavelengths equals the
// budget.
//
// The property test samples random demand patterns on purpose; quick
// prints the counterexample and no entropy reaches simulator state.
func TestAllocationConservesWavelengths(t *testing.T) {
	topo := topology.Default()
	f := func(seed uint64) bool {
		bundle, err := photonic.NewBundle(64)
		if err != nil {
			return false
		}
		a, err := NewAllocator(Config{
			Topology:              topo,
			Bundle:                bundle,
			TotalWavelengths:      64,
			ReservedPerCluster:    1,
			MaxChannelWavelengths: 8,
			ClockHz:               2.5e9,
		})
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		for cl := 0; cl < topo.Clusters(); cl++ {
			table := make([]int, topo.Clusters())
			for d := range table {
				if d != cl {
					table[d] = rng.Intn(9)
				}
			}
			for _, core := range topo.CoresOf(topology.ClusterID(cl)) {
				a.SetDemand(core, table)
			}
		}
		for i := 0; i < 16*8*a.TransitCycles(); i++ {
			a.Tick(sim.Cycle(i))
		}
		total := 0
		for cl := 0; cl < topo.Clusters(); cl++ {
			n := a.AllocatedCount(topology.ClusterID(cl))
			if n < 1 || n > 8 {
				return false
			}
			total += n
		}
		return total <= 64 && a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSettledVisitsMatchReference: the cached aim (wants), the settled
// current rows (currentFor) and the free-pool count are derived state and
// change no decision. Two allocators receive the same random sequence of
// demand updates, token bursts and Snapshot/Restore round
// trips under either policy. Before each of its ticks the reference
// forgets all three — it recomputes every aim from its request table with
// referenceWant, marks every current row stale and recounts the free
// pool — so it re-derives want and current and scans the pool on every
// visit, as the allocator did before the caches existed. Ownership, the
// acquired lists, the current tables, the token's demand field, the token
// position and the event log must agree after every step.
//
// The property test samples random activity on purpose; quick prints
// the counterexample and no entropy reaches simulator state.
func TestSettledVisitsMatchReference(t *testing.T) {
	topo := topology.Default()
	build := func(total int, policy Policy) (*Allocator, *event.Log) {
		bundle, err := photonic.NewBundle(total)
		if err != nil {
			t.Fatal(err)
		}
		log, err := event.NewLog(1 << 12)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAllocator(Config{
			Policy:                policy,
			Topology:              topo,
			Bundle:                bundle,
			TotalWavelengths:      total,
			ReservedPerCluster:    1,
			MaxChannelWavelengths: total / 8,
			ClockHz:               2.5e9,
			Events:                log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a, log
	}

	changed := 0 // runs whose event log shows an allocation change
	run := func(seed uint64, totalSel uint8, proportional bool, steps uint8) bool {
		total := []int{64, 256, 512}[int(totalSel)%3]
		policy := PolicyGreedy
		if proportional {
			policy = PolicyProportional
		}
		sub, subLog := build(total, policy)
		ref, refLog := build(total, policy)
		var subSnap, refSnap AllocatorSnapshot
		snapped := false

		rng := sim.NewRNG(seed)
		now := sim.Cycle(0)
		for step := 0; step < int(steps)+80; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				// A task remap reaches one core: a fresh demand table,
				// often toward few destinations so non-maximal entries
				// move while the cluster's aim stays put.
				core := topology.CoreID(rng.Intn(topo.Cores()))
				table := make([]int, topo.Clusters())
				for d := range table {
					if topology.ClusterID(d) != topo.ClusterOf(core) && rng.Intn(3) == 0 {
						table[d] = rng.Intn(total/4 + 1)
					}
				}
				sub.SetDemand(core, table)
				ref.SetDemand(core, table)
			case op < 8:
				for range rng.Intn(40) + 1 {
					for c := range ref.wants {
						ref.wants[c] = referenceWant(ref, c)
						ref.currentFor[c] = -1
					}
					ref.free = total - ownedCount(ref)
					ref.Tick(now)
					sub.Tick(now)
					now++
				}
			case op == 8:
				sub.Snapshot(&subSnap)
				ref.Snapshot(&refSnap)
				snapped = true
			default:
				if snapped {
					if err := sub.Restore(&subSnap); err != nil {
						t.Fatal(err)
					}
					if err := ref.Restore(&refSnap); err != nil {
						t.Fatal(err)
					}
				}
			}
			if diff := settledDiff(sub, ref); diff != "" {
				t.Logf("seed %d, %d wavelengths, %v, step %d: %s", seed, total, policy, step, diff)
				return false
			}
		}
		if !reflect.DeepEqual(subLog.Events(), refLog.Events()) {
			t.Logf("seed %d, %d wavelengths, %v: event logs differ", seed, total, policy)
			return false
		}
		if len(subLog.Events()) > 0 {
			changed++
		}
		return true
	}
	const runs = 80
	if err := quick.Check(run, &quick.Config{MaxCount: runs}); err != nil {
		t.Fatal(err)
	}
	// A run can lose its token early or restore to cycle 0 and change no
	// allocation; most must not, or the comparison is vacuous.
	if changed < runs/2 {
		t.Fatalf("only %d of %d runs changed an allocation", changed, runs)
	}
}

// referenceWant is want written out from its definition (§3.2.1): the
// highest request, floored at the reserve and capped at the channel
// ceiling and the budget.
func referenceWant(a *Allocator, c int) int {
	t := max(slices.Max(a.row(a.request, c)), a.cfg.ReservedPerCluster)
	if a.cfg.MaxChannelWavelengths > 0 {
		t = min(t, a.cfg.MaxChannelWavelengths)
	}
	return min(t, a.cfg.TotalWavelengths)
}

// ownedCount is the number of wavelengths every cluster holds together.
func ownedCount(a *Allocator) int {
	n := 0
	for _, held := range a.held {
		n += held
	}
	return n
}

// settledDiff names the first decision state in which a and b differ,
// or an invariant a breaks.
func settledDiff(a, b *Allocator) string {
	if err := a.CheckInvariants(); err != nil {
		return err.Error()
	}
	switch {
	case !slices.Equal(a.owner, b.owner):
		return "owner"
	case !slices.Equal(a.held, b.held):
		return "held"
	case !slices.Equal(a.tokenDemand, b.tokenDemand):
		return "token demand field"
	case a.rotations != b.rotations || a.pos != b.pos:
		return "token position"
	}
	for c := range a.clusters {
		if !slices.Equal(a.slots(c), b.slots(c)) {
			return fmt.Sprintf("acquired[%d]: %v vs %v", c, a.slots(c), b.slots(c))
		}
		if !slices.Equal(a.row(a.current, c), b.row(b.current, c)) {
			return fmt.Sprintf("current[%d]: %v vs %v", c, a.row(a.current, c), b.row(b.current, c))
		}
	}
	return ""
}
