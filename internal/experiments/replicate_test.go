package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Fatalf("mean = %g, want 5", mean)
	}
	if math.Abs(std-2.138) > 0.001 {
		t.Fatalf("sample std = %g, want ~2.138", std)
	}
	mean, std = meanStd([]float64{7})
	if mean != 7 || std != 0 {
		t.Fatalf("single-sample = %g +- %g", mean, std)
	}
}

func TestRunReplicatedValidation(t *testing.T) {
	p := Point{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly}
	if _, err := RunReplicated(context.Background(), quickOpts(), p, 1); err == nil {
		t.Fatal("single-seed replication accepted")
	}
}

// TestReplicasMatchSoloRuns holds replication to the one batch contract:
// replica i is the best-over-the-load-sweep row of solo runs at
// opts.Seed+i, each written out here as fabric.New + StepContext +
// Finish on its own fresh fabric.
func TestReplicasMatchSoloRuns(t *testing.T) {
	opts := quickOpts()
	opts.LoadScales = []float64{0.5, 1.0}
	opts = opts.withDefaults()
	p := Point{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: fabric.DHetPNoC}
	const seeds = 3
	ctx := context.Background()

	rows, err := replicateRows(ctx, opts, p, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != seeds {
		t.Fatalf("got %d rows, want %d", len(rows), seeds)
	}
	for i := 0; i < seeds; i++ {
		var want Row
		for _, scale := range opts.LoadScales {
			cfg := pointConfig(opts, p, scale)
			cfg.Seed = opts.Seed + uint64(i)
			f, err := fabric.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.StepContext(ctx, opts.Cycles); err != nil {
				t.Fatal(err)
			}
			res, err := f.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if res.Seed != cfg.Seed {
				t.Fatalf("solo run reports seed %d, want %d", res.Seed, cfg.Seed)
			}
			if row := rowAtPeak(p, scale, res); row.PeakBandwidthGbps > want.PeakBandwidthGbps {
				want = row
			}
		}
		if !reflect.DeepEqual(rows[i], want) {
			t.Fatalf("replica %d diverged from the solo runs at seed %d:\nreplica: %+v\nsolo:    %+v", i, opts.Seed+uint64(i), rows[i], want)
		}
	}
}

// TestSkewedGainIsStatisticallySignificant replicates the headline result
// over several seeds: d-HetPNoC's bandwidth gain under skewed traffic must
// exceed the combined 95% confidence half-widths — it is an architectural
// effect, not seed noise.
func TestSkewedGainIsStatisticallySignificant(t *testing.T) {
	opts := quickOpts()
	const seeds = 5

	ff, err := RunReplicated(context.Background(), opts, Point{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: fabric.Firefly}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := RunReplicated(context.Background(), opts, Point{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: fabric.DHetPNoC}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("firefly  %.1f +- %.1f Gb/s; d-hetpnoc %.1f +- %.1f Gb/s",
		ff.BandwidthMeanGbps, ff.BandwidthCI95Gbps, dh.BandwidthMeanGbps, dh.BandwidthCI95Gbps)
	if !SignificantGain(ff, dh) {
		t.Fatalf("gain not significant: firefly %.1f+-%.1f vs d-het %.1f+-%.1f",
			ff.BandwidthMeanGbps, ff.BandwidthCI95Gbps, dh.BandwidthMeanGbps, dh.BandwidthCI95Gbps)
	}
	if ff.Seeds != seeds || dh.Seeds != seeds {
		t.Fatal("seed counts wrong")
	}
}

// TestUniformEqualityHoldsAcrossSeeds: at uniform traffic the two
// crossbar architectures tie for every seed, so their means coincide.
func TestUniformEqualityHoldsAcrossSeeds(t *testing.T) {
	opts := quickOpts()
	ff, err := RunReplicated(context.Background(), opts, Point{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly}, 3)
	if err != nil {
		t.Fatal(err)
	}
	dh, err := RunReplicated(context.Background(), opts, Point{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.DHetPNoC}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ff.BandwidthMeanGbps-dh.BandwidthMeanGbps) > 1e-9 {
		t.Fatalf("uniform means differ: %.3f vs %.3f", ff.BandwidthMeanGbps, dh.BandwidthMeanGbps)
	}
	if SignificantGain(ff, dh) || SignificantGain(dh, ff) {
		t.Fatal("uniform traffic reported a significant gain")
	}
}
