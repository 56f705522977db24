package traffic

import (
	"math"
	"slices"
	"testing"

	"hetpnoc/internal/packet"
	"hetpnoc/internal/sim"
	"hetpnoc/internal/topology"
)

func newTestSource(t *testing.T, rateGbps, loadScale float64) (*Source, *packet.MessageID, *packet.ID) {
	t.Helper()
	topo := topology.Default()
	var msgs packet.MessageID
	var pkts packet.ID
	profile := CoreProfile{
		RateGbps:   rateGbps,
		DemandGbps: rateGbps * 4,
		PickDest: func(rng *sim.RNG) topology.CoreID {
			return topo.CoreAt(5, rng.Intn(4))
		},
	}
	src, err := NewSource(0, profile, BWSet1.Format, loadScale, 0, *sim.NewRNG(1), &packet.Pool{}, &msgs, &pkts)
	if err != nil {
		t.Fatal(err)
	}
	return &src, &msgs, &pkts
}

// TestSourceRateAccuracy: over a long window the generated bit rate
// matches the profile's offered rate.
func TestSourceRateAccuracy(t *testing.T) {
	for _, rate := range []float64{12.5, 25, 100} {
		src, _, _ := newTestSource(t, rate, 1.0)
		const cycles = 100000
		bits := 0
		for i := 0; i < cycles; i++ {
			if p := src.Tick(sim.Cycle(i)); p != nil {
				bits += p.Bits()
			}
		}
		gotGbps := float64(bits) / (float64(cycles) * 400e-12) / 1e9
		if math.Abs(gotGbps-rate)/rate > 0.01 {
			t.Errorf("rate %g Gb/s: generated %g Gb/s", rate, gotGbps)
		}
	}
}

func TestSourceLoadScale(t *testing.T) {
	src, _, _ := newTestSource(t, 100, 0.5)
	const cycles = 50000
	bits := 0
	for i := 0; i < cycles; i++ {
		if p := src.Tick(sim.Cycle(i)); p != nil {
			bits += p.Bits()
		}
	}
	gotGbps := float64(bits) / (float64(cycles) * 400e-12) / 1e9
	if math.Abs(gotGbps-50)/50 > 0.01 {
		t.Errorf("scaled source generated %g Gb/s, want 50", gotGbps)
	}
}

func TestSourceZeroRateGeneratesNothing(t *testing.T) {
	var msgs packet.MessageID
	var pkts packet.ID
	src, err := NewSource(0, CoreProfile{}, BWSet1.Format, 1.0, 0, *sim.NewRNG(1), &packet.Pool{}, &msgs, &pkts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if p := src.Tick(sim.Cycle(i)); p != nil {
			t.Fatal("zero-rate source generated a packet")
		}
	}
}

func TestSourcePacketIdentity(t *testing.T) {
	topo := topology.Default()
	src, _, _ := newTestSource(t, 100, 1.0)
	seenIDs := make(map[packet.ID]bool)
	seenMsgs := make(map[packet.MessageID]bool)
	for i := 0; i < 5000; i++ {
		p := src.Tick(sim.Cycle(i))
		if p == nil {
			continue
		}
		if seenIDs[p.ID] || seenMsgs[p.Message] {
			t.Fatalf("duplicate identity on %s", p)
		}
		seenIDs[p.ID] = true
		seenMsgs[p.Message] = true
		if p.Attempt != 1 {
			t.Fatalf("fresh packet attempt = %d, want 1", p.Attempt)
		}
		if p.SrcCluster != topo.ClusterOf(p.Src) || p.DstCluster != topo.ClusterOf(p.Dst) {
			t.Fatalf("cluster fields inconsistent on %s", p)
		}
	}
	if len(seenIDs) == 0 {
		t.Fatal("no packets generated")
	}
}

func TestRetransmitPreservesMessage(t *testing.T) {
	src, _, pkts := newTestSource(t, 100, 1.0)
	var orig *packet.Packet
	for i := 0; orig == nil; i++ {
		orig = src.Tick(sim.Cycle(i))
	}
	retry := RetransmitFrom(&packet.Pool{}, orig, 500, pkts)
	if retry.Message != orig.Message {
		t.Fatal("retransmission changed the message identity")
	}
	if retry.ID == orig.ID {
		t.Fatal("retransmission reused the packet ID")
	}
	if retry.Attempt != orig.Attempt+1 {
		t.Fatalf("attempt = %d, want %d", retry.Attempt, orig.Attempt+1)
	}
	if retry.Born != orig.Born {
		t.Fatal("retransmission changed the birth cycle")
	}
	if retry.Created != 500 {
		t.Fatalf("retransmission created = %d, want 500", retry.Created)
	}
}

func TestNewSourceValidation(t *testing.T) {
	var msgs packet.MessageID
	var pkts packet.ID
	// A rate without a destination sampler is a configuration bug.
	_, err := NewSource(0, CoreProfile{RateGbps: 10}, BWSet1.Format, 1.0, 0, *sim.NewRNG(1), &packet.Pool{}, &msgs, &pkts)
	if err == nil {
		t.Error("source with rate but no sampler accepted")
	}
	// Negative load scale.
	_, err = NewSource(0, CoreProfile{}, BWSet1.Format, -1, 0, *sim.NewRNG(1), &packet.Pool{}, &msgs, &pkts)
	if err == nil {
		t.Error("negative load scale accepted")
	}
	// Bad format.
	_, err = NewSource(0, CoreProfile{}, packet.Format{}, 1, 0, *sim.NewRNG(1), &packet.Pool{}, &msgs, &pkts)
	if err == nil {
		t.Error("zero format accepted")
	}
	// A positive rate that rounds to no credit would never emit.
	dest := func(*sim.RNG) topology.CoreID { return 10 }
	_, err = NewSource(0, CoreProfile{RateGbps: 12.5, PickDest: dest}, BWSet1.Format, 1e-12, 0, *sim.NewRNG(1), &packet.Pool{}, &msgs, &pkts)
	if err == nil {
		t.Error("a rate below one credit unit accepted")
	}
}

// TestBurstySourcePreservesAverageRate: the on/off Markov source keeps the
// long-run average at the nominal rate while concentrating it in bursts.
func TestBurstySourcePreservesAverageRate(t *testing.T) {
	topo := topology.Default()
	var msgs packet.MessageID
	var pkts packet.ID
	profile := CoreProfile{
		RateGbps:   25,
		DemandGbps: 100,
		Burstiness: 4,
		PickDest: func(rng *sim.RNG) topology.CoreID {
			return topo.CoreAt(5, rng.Intn(4))
		},
	}
	src, err := NewSource(0, profile, BWSet1.Format, 1.0, 0, *sim.NewRNG(3), &packet.Pool{}, &msgs, &pkts)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 400000
	bits := 0
	for i := 0; i < cycles; i++ {
		if p := src.Tick(sim.Cycle(i)); p != nil {
			bits += p.Bits()
		}
	}
	gotGbps := float64(bits) / (float64(cycles) * 400e-12) / 1e9
	if math.Abs(gotGbps-25)/25 > 0.05 {
		t.Fatalf("bursty source averaged %g Gb/s, want ~25", gotGbps)
	}
}

// TestBurstySourceIsActuallyBursty: inter-packet gaps must be far more
// variable than the constant-rate source's.
func TestBurstySourceIsActuallyBursty(t *testing.T) {
	topo := topology.Default()
	gapStats := func(burstiness float64) (mean, variance float64) {
		var msgs packet.MessageID
		var pkts packet.ID
		profile := CoreProfile{
			RateGbps:   25,
			DemandGbps: 100,
			Burstiness: burstiness,
			PickDest: func(rng *sim.RNG) topology.CoreID {
				return topo.CoreAt(5, rng.Intn(4))
			},
		}
		src, err := NewSource(0, profile, BWSet1.Format, 1.0, 0, *sim.NewRNG(7), &packet.Pool{}, &msgs, &pkts)
		if err != nil {
			t.Fatal(err)
		}
		var gaps []float64
		last := -1
		for i := 0; i < 200000; i++ {
			if p := src.Tick(sim.Cycle(i)); p != nil {
				if last >= 0 {
					gaps = append(gaps, float64(i-last))
				}
				last = i
			}
		}
		if len(gaps) < 100 {
			t.Fatalf("only %d gaps observed", len(gaps))
		}
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			variance += (g - mean) * (g - mean)
		}
		variance /= float64(len(gaps))
		return mean, variance
	}

	_, smoothVar := gapStats(1)
	_, burstyVar := gapStats(8)
	if burstyVar < 10*smoothVar {
		t.Fatalf("bursty gap variance %.1f not far above smooth %.1f", burstyVar, smoothVar)
	}
}

func TestBurstyValidation(t *testing.T) {
	var msgs packet.MessageID
	var pkts packet.ID
	profile := CoreProfile{RateGbps: 10, Burstiness: -1,
		PickDest: func(*sim.RNG) topology.CoreID { return 10 }}
	if _, err := NewSource(0, profile, BWSet1.Format, 1, 0, *sim.NewRNG(1), &packet.Pool{}, &msgs, &pkts); err == nil {
		t.Fatal("negative burstiness accepted")
	}
}

// TestSourceCopyIsCheckpoint: a copy of a source taken mid-run is its
// whole checkpoint. Assigned back (with the run-wide ID counters the
// source draws from rewound beside it), the source generates the same
// packets on the same cycles again, for a constant-rate and for a bursty
// source, and a second assignment of the same copy does so too.
func TestSourceCopyIsCheckpoint(t *testing.T) {
	topo := topology.Default()
	type emission struct {
		cycle sim.Cycle
		id    packet.ID
		dst   topology.CoreID
	}
	for _, burstiness := range []float64{0, 4} {
		var msgs packet.MessageID
		var pkts packet.ID
		profile := CoreProfile{
			RateGbps:   100,
			DemandGbps: 400,
			Burstiness: burstiness,
			PickDest: func(rng *sim.RNG) topology.CoreID {
				return topo.CoreAt(5, rng.Intn(4))
			},
		}
		src, err := NewSource(0, profile, BWSet1.Format, 1.0, 0, *sim.NewRNG(11), &packet.Pool{}, &msgs, &pkts)
		if err != nil {
			t.Fatal(err)
		}
		const start, window = 5000, 10000
		record := func() []emission {
			var out []emission
			for now := sim.Cycle(start); now < start+window; now++ {
				if p := src.Tick(now); p != nil {
					out = append(out, emission{now, p.ID, p.Dst})
				}
			}
			return out
		}
		for now := sim.Cycle(0); now < start; now++ {
			src.Tick(now)
		}
		saved, savedMsgs, savedPkts := src, msgs, pkts
		want := record()
		if len(want) < 100 {
			t.Fatalf("burstiness %g: only %d packets in the window", burstiness, len(want))
		}
		for round := 0; round < 2; round++ {
			src = saved
			msgs, pkts = savedMsgs, savedPkts
			if got := record(); !slices.Equal(got, want) {
				t.Fatalf("burstiness %g, replay %d diverged from the straight run", burstiness, round)
			}
		}
	}
}

// TestSourceNextEmission: a constant-rate source names the cycle of its
// next packet, counted from the cycle it was built for, emits on exactly
// that cycle whether or not the Ticks before it are made, and moves on to
// the next; a bursty source never names a cycle after the one it is at;
// a source whose credit cannot reach a packet names none.
func TestSourceNextEmission(t *testing.T) {
	build := func(rateGbps, burstiness float64, start sim.Cycle) Source {
		var msgs packet.MessageID
		var pkts packet.ID
		profile := CoreProfile{RateGbps: rateGbps, Burstiness: burstiness,
			PickDest: func(*sim.RNG) topology.CoreID { return 10 }}
		src, err := NewSource(0, profile, BWSet1.Format, 1, start, *sim.NewRNG(5), &packet.Pool{}, &msgs, &pkts)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	// 12.5 Gb/s is 5 bits per cycle, exact in binary: packet k of 2048
	// bits leaves on the cycle the sum reaches 2048k.
	const start = 1000
	every, sparse := build(12.5, 0, start), build(12.5, 0, start)
	for k := 1; k <= 5; k++ {
		want := sim.Cycle(start + (2048*k+4)/5 - 1)
		if got := every.NextEmission(); got != want {
			t.Fatalf("packet %d: NextEmission() = %d, want %d", k, got, want)
		}
		for now := want - 50; now < want; now++ {
			if every.Tick(now) != nil {
				t.Fatalf("packet %d left at cycle %d, before NextEmission", k, now)
			}
		}
		a, b := every.Tick(want), sparse.Tick(want)
		if a == nil || b == nil {
			t.Fatalf("packet %d did not leave at cycle %d", k, want)
		}
		if a.Created != want || b.Created != want {
			t.Fatalf("packet %d stamped %d and %d, want %d", k, a.Created, b.Created, want)
		}
	}

	bursty := build(12.5, 4, start)
	for now := sim.Cycle(start); now < start+5000; now++ {
		bursty.Tick(now)
		if got := bursty.NextEmission(); got > now {
			t.Fatalf("bursty source at cycle %d names cycle %d: its draws in between would be lost", now, got)
		}
	}

	silent := build(0, 0, start)
	if got := silent.NextEmission(); got != never {
		t.Fatalf("zero-rate source names cycle %d", got)
	}
}
