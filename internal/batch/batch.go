// Package batch executes many near-identical simulations in one pass.
//
// Every real consumer of the simulator — parameter sweeps, replicated
// runs, the differential oracles — runs N simulations that differ only
// in seed or offered load, and naively pays N fabric builds (~350 µs,
// 2,307 allocations and ~0.6 MB each). A Plan deduplicates its job list
// by configuration prefix (topology, photonic model, architecture,
// traffic pattern and every other build-time parameter are shared; seed
// and load scale vary), builds ONE fabric per unique prefix, checkpoints
// it at cycle 0, and runs every member by Restore + SetLoadScale + Reseed
// on that shared fabric — cache-hot stepping, no rebuilds.
//
// The contract is one sentence: every member is byte-identical to a
// solo run of its config. Each member replays its entire run — reset
// window included — under its own seed and load, so only the build is
// amortized and batching is purely a performance choice
// (TestBatchEquivalence, TestPristineForkMatchesSolo).
//
// A checkpoint only restores onto the fabric it was taken from, so the
// members of one group run sequentially on their shared fabric; Run's
// workers claim whole groups off one shared cursor. Results land by
// member index, so the output is independent of worker count and of
// which worker claims which group — the partition-independence property
// test holds this at worker counts 1, 2 and GOMAXPROCS.
package batch

import (
	"fmt"
	"runtime"

	"hetpnoc/internal/event"
	"hetpnoc/internal/fabric"
)

// Options parameterizes a Plan. The zero value runs GOMAXPROCS workers.
type Options struct {
	// Workers bounds the goroutines executing groups (default
	// GOMAXPROCS, capped at the group count — extra workers would only
	// idle).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result is one member's outcome.
type Result struct {
	// Res is the member's simulation result, identical to what a
	// standalone fabric run under the member's config would report.
	Res fabric.Result

	// Events holds the member's retained protocol events when the
	// config enabled the event log (EventCapacity > 0); nil otherwise.
	// Present-but-empty logs yield a non-nil empty slice, mirroring the
	// standalone run.
	Events []event.Event
}

// Stats describes a plan's shape after prefix deduplication.
type Stats struct {
	// Members is the total job count.
	Members int
	// Groups is the number of unique prefixes — exactly the number of
	// fabric builds Run performs.
	Groups int
	// LargestGroup is the biggest member count sharing one fabric.
	LargestGroup int
}

// Stats reports the plan's shape.
func (p *Plan) Stats() Stats {
	s := Stats{Members: len(p.specs), Groups: len(p.groups)}
	for _, g := range p.groups {
		if len(g.members) > s.LargestGroup {
			s.LargestGroup = len(g.members)
		}
	}
	return s
}

// memberError wraps a failure with the member it belongs to, so a
// 256-point sweep failure names the offending point.
func memberError(i int, cfg fabric.Config, err error) error {
	return fmt.Errorf("batch: member %d (%s/%s/%s): %w", i, cfg.Set.Name, cfg.Pattern.Name(), cfg.Arch, err)
}
