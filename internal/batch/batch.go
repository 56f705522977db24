// Package batch executes many near-identical simulations in one pass.
//
// Each real consumer of the simulator — parameter sweeps, replicated
// runs, the differential oracles, a service answering misses — runs
// simulations that differ only in seed or offered load, and naively pays
// a fabric build for each (~450 µs, ~2,100 allocations and ~0.6 MB). A
// Plan deduplicates its job list by configuration prefix (topology,
// photonic model, architecture, traffic pattern and every other
// build-time parameter are shared; seed and load scale vary) and runs
// each group of members on ONE fabric: every member but the one that
// built it starts by Restore + SetLoadScale + Reseed off the build's
// cycle-0 checkpoint (~25 µs, no allocations) — cache-hot stepping, no
// rebuilds.
//
// Builds outlive their plan. After a group finishes without error its
// pristine build (fabric plus cycle-0 checkpoint) goes on a process-wide
// shelf of shelfCapacity entries, and a later group of the same prefix,
// in any plan of the process, takes it and forks every member, the first
// included. A solo run is a one-member plan: its first sighting of a
// prefix costs one build, one checkpoint and the run; a repeat costs one
// fork and the run. Counters reports both counts.
//
// The contract is one sentence: every member is byte-identical to a solo
// run of its config. Each member replays its entire run — reset window
// included — under its own seed and load, so only the build is amortized
// and batching is purely a performance choice (the root package's
// TestPathEquivalence, and TestShelfNeitherPoisonsNorAliases for builds
// of failed groups).
//
// A member whose config equals an earlier member's, seed and load
// included, is run once: its twin runs as usual, and the repeat gets its
// own Finish of that run before the fabric forks again — a fresh result,
// byte-identical to the twin's and sharing no slice or map with it
// (TestPathEquivalence's Twin path).
//
// A checkpoint only restores onto the fabric it was taken from, so the
// members of one group run sequentially on their shared fabric; Run's
// workers claim whole groups off one shared cursor. Results land by
// member index, so the output is independent of worker count and of
// which worker claims which group — TestPathEquivalence's Corpus paths
// hold this at worker counts 1, 2 and GOMAXPROCS.
package batch

import "fmt"

// Options parameterizes a Plan. The zero value runs GOMAXPROCS workers.
type Options struct {
	// Workers bounds the goroutines executing groups (default
	// GOMAXPROCS, capped at the group count — extra workers would only
	// idle). One worker is Run's caller itself.
	Workers int
}

// Stats describes a plan's shape after prefix deduplication.
type Stats struct {
	// Members is the total job count.
	Members int
	// Groups is the number of unique prefixes — exactly the number of
	// fabrics Run steps, each built or taken off the shelf.
	Groups int
	// LargestGroup is the biggest member count sharing one fabric.
	LargestGroup int
}

// Stats reports the plan's shape.
func (p *Plan) Stats() Stats {
	s := Stats{Members: len(p.specs), Groups: len(p.groups)}
	for _, g := range p.groups {
		s.LargestGroup = max(s.LargestGroup, len(g.members)+len(g.repeats))
	}
	return s
}

// memberError wraps a failure of member i with the member it belongs
// to, so a 256-point sweep failure names the offending point. A
// one-member plan is a solo run: its failure is the run's own, returned
// as the fabric reported it.
func (p *Plan) memberError(i int, err error) error {
	if len(p.specs) == 1 {
		return err
	}
	cfg := p.specs[i]
	return fmt.Errorf("batch: member %d (%s/%s/%s): %w", i, cfg.Set.Name, cfg.Pattern.Name(), cfg.Arch, err)
}
