package fabric

import (
	"fmt"
	"testing"

	"hetpnoc/internal/event"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/traffic"
)

// What these tests leave unpinned on purpose: whether a remap or a
// retransmission goes first on a cycle both fire. fireDue's two arms touch
// disjoint state (see its comment), so either order yields the same
// result and event-log bytes; the root package's dhetpnoc-dropstorm
// checkpoint case fires both on cycle 2093 and is byte-identical with the
// arms swapped.

// TestRemapsFireInCycleOrder: remaps fire on their own cycle, earliest
// first however Config.Remaps lists them, and remaps sharing a cycle fire
// in configuration order (the last one listed is the mapping that stays).
func TestRemapsFireInCycleOrder(t *testing.T) {
	f, err := New(Config{
		Pattern: traffic.Uniform{},
		Remaps: []Remap{
			{At: 900, Pattern: traffic.Skewed{Level: 1}},
			{At: 300, Pattern: traffic.Skewed{Level: 2}},
			{At: 900, Pattern: traffic.Skewed{Level: 3}},
			{At: 0, Pattern: traffic.Permutation{Kind: traffic.Neighbor}},
			{At: 300, Pattern: traffic.Uniform{}},
		},
		EventCapacity: 1 << 16,
		Cycles:        1200, WarmupCycles: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range f.Events().OfKind(event.TaskRemap) {
		got = append(got, fmt.Sprintf("%d %s", e.Cycle, e.Detail))
	}
	want := []string{
		"0 workload -> " + traffic.Permutation{Kind: traffic.Neighbor}.Name(),
		"300 workload -> skewed2",
		"300 workload -> uniform",
		"900 workload -> skewed1",
		"900 workload -> skewed3",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("remaps fired as\n%q\nwant\n%q", got, want)
	}
}

// TestRetransmitsWaitOutTheBackoff steps the drop-storm run against a
// model of the retransmission queue: every packet dropped at cycle c with
// retries left re-enters its source queue at the top of cycle c plus the
// back-off — not a cycle earlier, not a cycle later — so after each step
// the fabric holds exactly the model's pending count.
func TestRetransmitsWaitOutTheBackoff(t *testing.T) {
	cfg := dropStormConfig(Firefly)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backoff := sim.Cycle(RetryBackoffCycles)
	var due []sim.Cycle // model: due cycle per pending retransmission, FIFO
	maxPending := 0
	for c := sim.Cycle(0); c < sim.Cycle(cfg.Cycles); c++ {
		before := f.Totals().Retransmitted
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		for len(due) > 0 && due[0] == c {
			due = due[1:]
		}
		for n := f.Totals().Retransmitted - before; n > 0; n-- {
			due = append(due, c+backoff)
		}
		if got := f.PendingRetransmits(); got != len(due) {
			t.Fatalf("after cycle %d the fabric holds %d pending retransmissions, the model %d", c, got, len(due))
		}
		maxPending = max(maxPending, len(due))
	}
	if tot := f.Totals(); tot.Retransmitted < 100 || tot.Lost == 0 || maxPending < 4 {
		t.Fatalf("run too quiet to test the queue: %+v, at most %d pending", tot, maxPending)
	}
}
