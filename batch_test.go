package hetpnoc

import (
	"bytes"
	"fmt"
	"testing"

	"hetpnoc/internal/batch"
)

// equivalenceConfigs builds the differential corpus for the batch
// oracle: every architecture crossed with every bandwidth set, each
// point fanned out over seeds and load scales so batching has prefixes
// to deduplicate, with the event log enabled so the comparison covers
// the protocol event stream and not just the aggregate counters. The last
// group alternates 5 % and 200 % load on one fabric: at 5 % the sources
// emit once in 1,024 cycles and the run is mostly jumps, so each fork's
// Restore → SetLoadScale → Reseed has to restart every source's
// look-ahead from the fork cycle, in both directions.
func equivalenceConfigs() []Config {
	var cfgs []Config
	for _, arch := range []Architecture{DHetPNoC, Firefly, TorusPNoC} {
		for set := 1; set <= 3; set++ {
			for _, seed := range []uint64{1, 7} {
				for _, load := range []float64{1.0, 2.0} {
					cfgs = append(cfgs, Config{
						Architecture:  arch,
						BandwidthSet:  set,
						Traffic:       Traffic{Kind: UniformRandom},
						LoadScale:     load,
						Cycles:        600,
						WarmupCycles:  150,
						Seed:          seed,
						EventCapacity: 256,
					})
				}
			}
		}
	}
	for _, seed := range []uint64{1, 7} {
		for _, load := range []float64{0.05, 2.0} {
			cfgs = append(cfgs, Config{
				Architecture:  DHetPNoC,
				BandwidthSet:  3,
				Traffic:       Traffic{Kind: UniformRandom},
				LoadScale:     load,
				Cycles:        3000,
				WarmupCycles:  150,
				Seed:          seed,
				EventCapacity: 256,
			})
		}
	}
	return cfgs
}

// TestBatchEquivalence is the batch engine's differential oracle: for
// every config in the corpus, the batched result must be byte-identical
// — canonical Result encoding and the formatted event log — to running
// the config alone through Run. Batching must be purely a performance
// choice; any divergence means the checkpoint-fork fast path leaked
// state between members.
func TestBatchEquivalence(t *testing.T) {
	cfgs := equivalenceConfigs()
	batched, err := RunBatch(cfgs)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(batched) != len(cfgs) {
		t.Fatalf("RunBatch returned %d results for %d configs", len(batched), len(cfgs))
	}
	for i, cfg := range cfgs {
		name := fmt.Sprintf("config %d (%v/set%d/seed%d/load%g)",
			i, cfg.Architecture, cfg.BandwidthSet, cfg.Seed, cfg.LoadScale)
		solo, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: solo run: %v", name, err)
		}
		eb, err := batched[i].CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: encode batched: %v", name, err)
		}
		es, err := solo.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: encode solo: %v", name, err)
		}
		if !bytes.Equal(eb, es) {
			t.Errorf("%s: batched result diverges from solo run:\nbatched: %s\nsolo:    %s", name, eb, es)
		}
		if len(batched[i].Events) != len(solo.Events) {
			t.Errorf("%s: batched logged %d events, solo %d", name, len(batched[i].Events), len(solo.Events))
			continue
		}
		for j := range solo.Events {
			if batched[i].Events[j] != solo.Events[j] {
				t.Errorf("%s: event %d diverges:\nbatched: %s\nsolo:    %s", name, j, batched[i].Events[j], solo.Events[j])
				break
			}
		}
		if batched[i].PacketsDelivered == 0 {
			t.Errorf("%s: delivered nothing; the oracle is vacuous", name)
		}
	}
}

// TestBatchEquivalenceDedupes pins that the corpus above actually
// exercises the fast path: the 4 seed/load variants of each
// architecture × set point must collapse onto one fabric build.
func TestBatchEquivalenceDedupes(t *testing.T) {
	cfgs := equivalenceConfigs()
	specs, err := lowerAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := batch.NewPlan(specs, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	wantGroups := len(cfgs) / 4 // 2 seeds × 2 loads per prefix
	if st.Groups != wantGroups {
		t.Errorf("plan built %d groups for %d members, want %d", st.Groups, st.Members, wantGroups)
	}
	if st.LargestGroup != 4 {
		t.Errorf("largest group has %d members, want 4", st.LargestGroup)
	}
}

// sweep256Configs builds a 256-point sweep: a cross-product of 8 build
// prefixes (2 architectures × 2 bandwidth sets × 2 traffic patterns)
// fanned out over 8 seeds and 4 load scales.
func sweep256Configs() []Config {
	var cfgs []Config
	for _, arch := range []Architecture{DHetPNoC, Firefly} {
		for _, set := range []int{1, 2} {
			for _, tr := range []Traffic{{Kind: UniformRandom}, {Kind: SkewedKind, SkewLevel: 2}} {
				for seed := uint64(1); seed <= 8; seed++ {
					for _, load := range []float64{0.5, 1, 1.5, 2} {
						cfgs = append(cfgs, Config{
							Architecture: arch,
							BandwidthSet: set,
							Traffic:      tr,
							LoadScale:    load,
							Cycles:       600,
							WarmupCycles: 150,
							Seed:         seed,
						})
					}
				}
			}
		}
	}
	return cfgs
}

// TestBatchSweep256Builds pins the sweep's shape: the batch engine must
// collapse the 256 points onto exactly 8 fabric builds, each carrying
// its 32 seed/load variants.
func TestBatchSweep256Builds(t *testing.T) {
	cfgs := sweep256Configs()
	if len(cfgs) != 256 {
		t.Fatalf("corpus has %d points, want 256", len(cfgs))
	}
	specs, err := lowerAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := batch.NewPlan(specs, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.Groups != 8 || st.LargestGroup != 32 {
		t.Errorf("plan stats = %+v, want 8 groups of 32", st)
	}
}

// TestRunBatchEmpty: an empty batch is a no-op, not an error.
func TestRunBatchEmpty(t *testing.T) {
	res, err := RunBatch(nil)
	if err != nil {
		t.Fatalf("RunBatch(nil): %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("RunBatch(nil) returned %d results", len(res))
	}
}
