package experiments

import (
	"context"
	"math"
	"testing"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
)

// meanStd returns the sample mean and (n-1) standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += float64(d * d) // rounded: no fused multiply-add on any GOARCH
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

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

// replicated is one config's delivered bandwidth over several seeds.
type replicated struct {
	mean, ci95 float64 // Gb/s; ci95 is the normal-approximation half-width
}

// replicate runs cfg at seeds 1..seeds, each seed one config of a single
// list, and aggregates the delivered bandwidth.
func replicate(t *testing.T, cfg fabric.Config, seeds int) replicated {
	t.Helper()
	cfgs := make([]fabric.Config, seeds)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = uint64(i + 1)
	}
	rows, err := RunMatrix(context.Background(), quickOpts(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != seeds {
		t.Fatalf("%d rows for %d seeds", len(rows), seeds)
	}
	bandwidths := make([]float64, seeds)
	for i, r := range rows {
		bandwidths[i] = float64(r.PeakBandwidthGbps)
	}
	mean, std := meanStd(bandwidths)
	return replicated{mean: mean, ci95: 1.96 / math.Sqrt(float64(seeds)) * std}
}

// significantGain reports whether b's mean exceeds a's beyond the sum of
// their confidence half-widths — a conservative "the gain is not seed
// noise" check.
func significantGain(a, b replicated) bool {
	return b.mean-a.mean > a.ci95+b.ci95
}

// TestSkewedGainIsStatisticallySignificant replicates the headline result
// over several seeds: d-HetPNoC's bandwidth gain under skewed traffic must
// exceed the combined 95% confidence half-widths — it is an architectural
// effect, not seed noise.
func TestSkewedGainIsStatisticallySignificant(t *testing.T) {
	const seeds = 5
	ff := replicate(t, fabric.Config{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: fabric.Firefly}, seeds)
	dh := replicate(t, fabric.Config{Set: traffic.BWSet1, Pattern: traffic.Skewed{Level: 2}, Arch: fabric.DHetPNoC}, seeds)
	t.Logf("firefly  %.1f +- %.1f Gb/s; d-hetpnoc %.1f +- %.1f Gb/s", ff.mean, ff.ci95, dh.mean, dh.ci95)
	if !significantGain(ff, dh) {
		t.Fatalf("gain not significant: firefly %.1f+-%.1f vs d-het %.1f+-%.1f", ff.mean, ff.ci95, dh.mean, dh.ci95)
	}
}

// TestUniformEqualityHoldsAcrossSeeds: at uniform traffic the two
// crossbar architectures tie for every seed, so their means coincide.
func TestUniformEqualityHoldsAcrossSeeds(t *testing.T) {
	ff := replicate(t, fabric.Config{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.Firefly}, 3)
	dh := replicate(t, fabric.Config{Set: traffic.BWSet1, Pattern: traffic.Uniform{}, Arch: fabric.DHetPNoC}, 3)
	if math.Abs(ff.mean-dh.mean) > 1e-9 {
		t.Fatalf("uniform means differ: %.3f vs %.3f", ff.mean, dh.mean)
	}
	if significantGain(ff, dh) || significantGain(dh, ff) {
		t.Fatal("uniform traffic reported a significant gain")
	}
}
