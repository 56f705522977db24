package hetpnoc

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"hetpnoc/internal/event"
	"hetpnoc/internal/fabric"
	"hetpnoc/internal/sim"
)

// checkpointCase drives one configuration three ways — uninterrupted,
// checkpointed-but-uninterrupted, and restored-and-re-stepped — and
// requires all three to produce byte-identical canonical results. The
// uninterrupted run is stepped one Step at a time, the reference; the
// other two go through StepContext as production runs do, so the equality
// also holds the cycles StepContext jumps over to the reference.
type checkpointCase struct {
	name   string
	cfg    Config
	snapAt int
	// remapAt, when positive, schedules a mid-run task remap AFTER the
	// checkpoint, so the restore must replay the remap (new sources from
	// the restored RNG) identically.
	remapAt int64
	// wantBlocked requires the checkpoint to land while some router holds
	// a header waiting on a VC-exhausted output, so the byte-equality
	// after Restore covers the routers' rebuilt waiting-header masks.
	wantBlocked bool
	// tweak, when set, adjusts the lowered fabric.Config for knobs the
	// public Config does not expose.
	tweak func(*fabric.Config)
	// wantRetx requires the checkpoint to land while dropped packets wait
	// out their back-off, and the remap to fall on the very cycle one of
	// them re-enters its source queue, so the byte-equality after Restore
	// covers the retransmission queue, the remap cursor and a cycle on
	// which both fire.
	wantRetx bool
	// wantIdle requires the checkpoint to land strictly inside a span of
	// cycles StepContext jumps over, instead of across a transfer: what
	// crosses it is every source's pending emission and the token.
	wantIdle bool
}

// lightLoadCase is the run-lightload operating point of BENCHMARK.json:
// all 64 sources emit in step every 1,024 cycles (first at 1023) and the
// chip drains within a hundred, so cycle 2600 is mid-span; the remap at
// 2800 falls due inside the same span.
var lightLoadCase = checkpointCase{
	name: "dhetpnoc-lightload",
	cfg: Config{
		Architecture:  DHetPNoC,
		BandwidthSet:  3,
		Traffic:       UniformTraffic(),
		LoadScale:     0.05,
		Cycles:        6000,
		WarmupCycles:  1000,
		Seed:          5,
		EventCapacity: 1 << 12,
	},
	snapAt:   2600,
	remapAt:  2800,
	wantIdle: true,
}

// dropStormCase is the drop-heavy operating point of fabric's
// "hotspot-drops" golden rows: two VCs per port and half of all traffic
// aimed at one cluster, a few hundred RX drops per run. The first packet
// dropped after cycle 2000 is dropped at 2029 and retried at 2093.
var dropStormCase = checkpointCase{
	name: "dhetpnoc-dropstorm",
	cfg: Config{
		Architecture:  DHetPNoC,
		BandwidthSet:  1,
		Traffic:       HotspotTraffic(0.5, 3),
		LoadScale:     1.5,
		Cycles:        6000,
		WarmupCycles:  1000,
		Seed:          11,
		EventCapacity: 1 << 15,
	},
	tweak:    func(fc *fabric.Config) { fc.VCsPerPort = 2 },
	snapAt:   2080,
	remapAt:  2093,
	wantRetx: true,
}

func TestCheckpointRoundTrip(t *testing.T) {
	cases := []checkpointCase{
		{
			// The proposed architecture under its stressed workload:
			// token DBA, selected-wavelength gating and headers blocked
			// on VC-exhausted outputs live across the checkpoint. (The
			// run drops nothing; dhetpnoc-dropstorm covers that path.)
			name: "dhetpnoc-skewed",
			cfg: Config{
				Architecture:  DHetPNoC,
				BandwidthSet:  1,
				Traffic:       SkewedTraffic(3),
				LoadScale:     2.0,
				Cycles:        3000,
				WarmupCycles:  500,
				Seed:          7,
				EventCapacity: 128,
			},
			snapAt:      1200,
			remapAt:     2000,
			wantBlocked: true,
		},
		{
			// Checkpoint inside the warm-up window: the measurement
			// transition must replay after the restore. Firefly's
			// channels run in lockstep here; at 430 each streams one
			// packet and holds the next one's receive window open.
			name: "firefly-uniform-prewarmup",
			cfg: Config{
				Architecture: Firefly,
				BandwidthSet: 2,
				Traffic:      UniformTraffic(),
				LoadScale:    1.0,
				Cycles:       2500,
				WarmupCycles: 800,
				Seed:         3,
			},
			snapAt: 430,
		},
		{
			// Circuit-switched baseline: link ownership and in-flight
			// path state cross the checkpoint.
			name: "torus-uniform",
			cfg: Config{
				Architecture:  TorusPNoC,
				Traffic:       UniformTraffic(),
				LoadScale:     1.5,
				Cycles:        2500,
				WarmupCycles:  500,
				Seed:          11,
				EventCapacity: 1 << 12,
			},
			snapAt: 1300,
		},
		dropStormCase,
		lightLoadCase,
		{
			// Light load, checkpoint inside the warm-up window and inside
			// the span before anything has been emitted (the first
			// packets leave at 8191): the jump must stop for the start of
			// measurement again after the restore.
			name: "firefly-lightload-prewarmup",
			cfg: Config{
				Architecture: Firefly,
				BandwidthSet: 1,
				Traffic:      UniformTraffic(),
				LoadScale:    0.05,
				Cycles:       9000,
				WarmupCycles: 1000,
				Seed:         3,
			},
			snapAt:   600,
			wantIdle: true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkpointRoundTrip(t, tc)
		})
	}
}

// lowered returns the fabric configuration of tc, remap and tweak applied.
func (tc checkpointCase) lowered(t *testing.T) fabric.Config {
	t.Helper()
	var remaps []TrafficRemap
	if tc.remapAt > 0 {
		remaps = []TrafficRemap{{AtCycle: int64(tc.remapAt), Traffic: UniformTraffic()}}
	}
	fc, err := lower(tc.cfg, remaps)
	if err != nil {
		t.Fatal(err)
	}
	if tc.tweak != nil {
		tc.tweak(&fc)
	}
	fc = fc.WithDefaults()
	if tc.snapAt <= 0 || tc.snapAt >= fc.Cycles {
		t.Fatalf("snapshot cycle %d outside run of %d cycles", tc.snapAt, fc.Cycles)
	}
	return fc
}

func checkpointRoundTrip(t *testing.T, tc checkpointCase) {
	t.Helper()
	fc := tc.lowered(t)
	if tc.wantIdle {
		if !idleAcross(t, fc, tc.snapAt) {
			t.Fatalf("cycle %d is not strictly inside a span StepContext jumps over; the case no longer checkpoints one", tc.snapAt)
		}
	} else {
		requireTransfersAcross(t, fc, sim.Cycle(tc.snapAt))
	}

	// Reference: an uninterrupted run.
	ref := buildFabric(t, fc)
	stepN(t, ref, fc.Cycles)
	if tc.wantRetx {
		dropAt := sim.Cycle(tc.remapAt) - sim.Cycle(fc.RetryBackoffCycles)
		if !slices.ContainsFunc(ref.Events().Events(), func(e event.Event) bool {
			return e.Kind == event.Retransmit && e.Cycle == dropAt
		}) {
			t.Fatalf("no packet was dropped at cycle %d, so none is retried on the remap's cycle %d; the case no longer fires a remap and a retransmission together", dropAt, tc.remapAt)
		}
	}
	refJSON, refEvents := finishCanonical(t, ref)

	// Same run with a checkpoint taken mid-way: taking it must not
	// perturb anything.
	f := buildFabric(t, fc)
	runN(t, f, tc.snapAt)
	cp := f.Checkpoint()
	blocked := f.BlockedHeaders()
	if tc.wantBlocked && blocked == 0 {
		t.Fatalf("no header waits on a VC-exhausted output at cycle %d; the case no longer exercises the blocked-header state", tc.snapAt)
	}
	pending := f.PendingRetransmits()
	if tc.wantRetx && pending == 0 {
		t.Fatalf("no retransmission is pending at cycle %d; the case no longer exercises the retransmission queue", tc.snapAt)
	}
	runN(t, f, fc.Cycles-tc.snapAt)
	gotJSON, gotEvents := finishCanonical(t, f)
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatalf("taking a checkpoint perturbed the run:\nref: %s\ngot: %s", refJSON, gotJSON)
	}
	if refEvents != gotEvents {
		t.Fatal("taking a checkpoint perturbed the event log")
	}

	// Rewind the finished fabric and re-step the remainder: byte-identical
	// to the uninterrupted run.
	if err := f.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Now(), sim.Cycle(tc.snapAt); got != want {
		t.Fatalf("restored fabric at cycle %d, checkpoint was at %d", got, want)
	}
	if got := f.BlockedHeaders(); got != blocked {
		t.Fatalf("restored fabric has %d blocked headers, checkpoint was taken with %d", got, blocked)
	}
	if got := f.PendingRetransmits(); got != pending {
		t.Fatalf("restored fabric has %d pending retransmissions, checkpoint was taken with %d", got, pending)
	}
	runN(t, f, fc.Cycles-tc.snapAt)
	redoJSON, redoEvents := finishCanonical(t, f)
	if !bytes.Equal(refJSON, redoJSON) {
		t.Fatalf("restored run diverged from uninterrupted run:\nref: %s\ngot: %s", refJSON, redoJSON)
	}
	if refEvents != redoEvents {
		t.Fatalf("restored run's event log diverged:\nref:\n%s\ngot:\n%s", refEvents, redoEvents)
	}

	// The checkpoint survives its first use: restore a second time and
	// replay again.
	if err := f.Restore(cp); err != nil {
		t.Fatal(err)
	}
	runN(t, f, fc.Cycles-tc.snapAt)
	againJSON, _ := finishCanonical(t, f)
	if !bytes.Equal(refJSON, againJSON) {
		t.Fatal("second restore from the same checkpoint diverged")
	}
}

// TestCheckpointRestoreChain runs a case in 500-cycle legs, each stepped
// once as a throwaway that dirties every piece of state, rewound, and
// stepped again for real: the chain of restores must end byte-identical
// to one straight run, stepped one Step at a time. The drop-storm case
// keeps retransmissions pending across checkpoints; in the light-load
// case the checkpoints cut the spans StepContext jumps over.
func TestCheckpointRestoreChain(t *testing.T) {
	const leg = 500
	for _, tc := range []checkpointCase{dropStormCase, lightLoadCase} {
		t.Run(tc.name, func(t *testing.T) {
			fc := tc.lowered(t)

			ref := buildFabric(t, fc)
			stepN(t, ref, fc.Cycles)
			refJSON, refEvents := finishCanonical(t, ref)

			f := buildFabric(t, fc)
			sawPending := false
			for done := 0; done < fc.Cycles; done += leg {
				cp := f.Checkpoint()
				sawPending = sawPending || f.PendingRetransmits() > 0
				runN(t, f, leg)
				if err := f.Restore(cp); err != nil {
					t.Fatal(err)
				}
				runN(t, f, leg)
			}
			if tc.wantRetx && !sawPending {
				t.Fatal("no checkpoint of the chain held a pending retransmission")
			}
			if tc.wantIdle && !(idleAcross(t, fc, leg) && idleAcross(t, fc, 5*leg)) {
				t.Fatal("the checkpoints at cycles 500 and 2500 are not both strictly inside a span StepContext jumps over")
			}
			gotJSON, gotEvents := finishCanonical(t, f)
			if !bytes.Equal(refJSON, gotJSON) {
				t.Fatalf("restore chain diverged from the straight run:\nref: %s\ngot: %s", refJSON, gotJSON)
			}
			if refEvents != gotEvents {
				t.Fatal("restore chain's event log diverged from the straight run's")
			}
		})
	}
}

// idleAcross reports whether cycle at of fc's run lies strictly inside a
// span StepContext jumps over: stepped on their own, the cycle before it
// and the cycle itself are both skipped.
func idleAcross(t *testing.T, fc fabric.Config, at int) bool {
	t.Helper()
	f := buildFabric(t, fc)
	runN(t, f, at-1)
	before := f.SkippedCycles()
	runN(t, f, 1)
	runN(t, f, 1)
	return f.SkippedCycles() == before+2
}

// requireTransfersAcross runs fc once with an event log that evicts
// nothing and requires the checkpoint cycle to cut through both stages of
// the photonic pipeline: a packet that began streaming before the
// checkpoint and arrives (or is dropped) after it, so an open receive
// window crosses the checkpoint, and a packet whose reservation (crossbar)
// or circuit setup (torus) went out before the checkpoint and which starts
// streaming after it. The byte-equality after Restore then covers both.
func requireTransfersAcross(t *testing.T, fc fabric.Config, at sim.Cycle) {
	t.Helper()
	fc.EventCapacity = 1 << 14
	f := buildFabric(t, fc)
	stepN(t, f, fc.Cycles)
	if n := f.Events().Evicted(); n > 0 {
		t.Fatalf("the guard's event log evicted %d events; raise its capacity", n)
	}
	// A blocked torus setup also logs ReservationSent; the retry that
	// succeeds overwrites it, so reservedAt holds the one that led to the
	// stream.
	reservedAt := map[int64]sim.Cycle{}
	startedAt := map[int64]sim.Cycle{}
	var streaming, reserved int
	for _, e := range f.Events().Events() {
		switch e.Kind {
		case event.ReservationSent:
			reservedAt[e.Packet] = e.Cycle
		case event.StreamStarted:
			startedAt[e.Packet] = e.Cycle
			if r, ok := reservedAt[e.Packet]; ok && r < at && e.Cycle >= at {
				reserved++
			}
		case event.PacketArrived, event.PacketDropped:
			if s, ok := startedAt[e.Packet]; ok && s < at && e.Cycle >= at {
				streaming++
			}
		}
	}
	if streaming == 0 {
		t.Fatalf("no packet streams across cycle %d; the case no longer checkpoints an open receive window", at)
	}
	if reserved == 0 {
		t.Fatalf("no reservation or circuit setup is in flight across cycle %d; the case no longer checkpoints one", at)
	}
}

func buildFabric(t *testing.T, fc fabric.Config) *fabric.Fabric {
	t.Helper()
	f, err := fabric.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stepN advances f by cycles calls of Step, the reference.
func stepN(t *testing.T, f *fabric.Fabric, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// runN advances f by cycles the way production runs do, through
// StepContext, which jumps over the cycles in which nothing can happen.
func runN(t *testing.T, f *fabric.Fabric, cycles int) {
	t.Helper()
	if err := f.StepContext(context.Background(), cycles); err != nil {
		t.Fatal(err)
	}
}

// finishCanonical closes the run and returns the canonical result bytes
// plus the formatted event log (empty when logging is disabled).
func finishCanonical(t *testing.T, f *fabric.Fabric) ([]byte, string) {
	t.Helper()
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := fromFabricResult(res).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var events string
	if log := f.Events(); log != nil {
		for _, e := range log.Events() {
			events += e.String() + "\n"
		}
	}
	return enc, events
}
