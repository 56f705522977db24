package experiments

import (
	"context"
	"fmt"
	"math"

	"hetpnoc/internal/batch"
	"hetpnoc/internal/fabric"
)

// Replicated aggregates one matrix point over several seeds: mean, sample
// standard deviation and a normal-approximation 95% confidence half-width
// for the two headline metrics. The thesis reports single runs; replicated
// runs let EXPERIMENTS.md distinguish real effects from seed noise.
type Replicated struct {
	Set     string `json:"set"`
	Pattern string `json:"pattern"`
	Arch    string `json:"arch"`
	Seeds   int    `json:"seeds"`

	BandwidthMeanGbps float64 `json:"bandwidthMeanGbps"`
	BandwidthStdGbps  float64 `json:"bandwidthStdGbps"`
	BandwidthCI95Gbps float64 `json:"bandwidthCi95Gbps"`

	EPMMeanPJ float64 `json:"epmMeanPJ"`
	EPMStdPJ  float64 `json:"epmStdPJ"`
	EPMCI95PJ float64 `json:"epmCi95PJ"`
}

// RunReplicated executes the point once per seed (opts.Seed, opts.Seed+1,
// ...) and aggregates the results.
//
//hetpnoc:ctxroot synchronous public wrapper over RunReplicatedContext, mirrors RunMatrix
func RunReplicated(opts Options, p Point, seeds int) (Replicated, error) {
	return RunReplicatedContext(context.Background(), opts, p, seeds)
}

// RunReplicatedContext is RunReplicated with cancellation: ctx reaches
// every replicate's fabric, so canceling aborts the whole replication at
// the next cancellation check instead of leaking seeds.
//
// Replicas fork from one warmed-up prefix per load scale: the fabric is
// built and warmed once at opts.Seed, checkpointed at the warm-up
// boundary, and each replica restores the checkpoint and reseeds with
// opts.Seed+i before paying only the measurement window — the FabricBuild
// and warm-up cost is amortized across all seeds, and the forked runs
// are bit-identical to warming a fresh fabric and reseeding it at the
// same boundary (TestReplicatedForkBitIdentical).
func RunReplicatedContext(ctx context.Context, opts Options, p Point, seeds int) (Replicated, error) {
	if seeds < 2 {
		return Replicated{}, fmt.Errorf("experiments: replication needs >= 2 seeds, got %d", seeds)
	}
	opts = opts.withDefaults()

	rows, err := replicateRows(ctx, opts, p, seeds)
	if err != nil {
		return Replicated{}, err
	}
	bandwidths := make([]float64, seeds)
	epms := make([]float64, seeds)
	for i := range rows {
		bandwidths[i] = float64(rows[i].PeakBandwidthGbps)
		epms[i] = float64(rows[i].EnergyPerMessagePJ)
	}

	bwMean, bwStd := meanStd(bandwidths)
	epmMean, epmStd := meanStd(epms)
	z := 1.96 / math.Sqrt(float64(seeds))
	return Replicated{
		Set:               p.Set.Name,
		Pattern:           p.Pattern.Name(),
		Arch:              p.Arch.String(),
		Seeds:             seeds,
		BandwidthMeanGbps: bwMean,
		BandwidthStdGbps:  bwStd,
		BandwidthCI95Gbps: z * bwStd,
		EPMMeanPJ:         epmMean,
		EPMStdPJ:          epmStd,
		EPMCI95PJ:         z * epmStd,
	}, nil
}

// replicateRows produces one best-over-the-load-sweep Row per seed,
// running all (scale, seed) pairs through one warm-fork batch plan.
// Each load scale forms one plan group: its replicas share the prefix
// generated by opts.Seed (the group's first member), diverge at the
// warm-up boundary — exactly where measurement starts — and pay only
// the measurement window, so the measured windows are independent
// draws over a common warm state. The fork point is the checkpoint's
// own cycle, never re-derived from the caller's options: replicas can
// no longer re-step the warm-up when the two disagree (the
// double-warm-up regression pinned by TestReplicateNoDoubleWarmup).
func replicateRows(ctx context.Context, opts Options, p Point, seeds int) ([]Row, error) {
	// Defaulted again defensively: the fork grouping below assumes the
	// options carry the same warm-up the fabric will actually apply.
	opts = opts.withDefaults()
	scales := opts.LoadScales
	specs := make([]fabric.Config, 0, seeds*len(scales))
	for i := 0; i < seeds; i++ {
		for _, scale := range scales {
			cfg := pointConfig(opts, p, scale)
			cfg.Seed = opts.Seed + uint64(i)
			specs = append(specs, cfg)
		}
	}
	out, err := runPlan(ctx, opts, batch.ForkWarmup, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s/%s: %w", p.Set.Name, p.Pattern.Name(), p.Arch, err)
	}
	rows := make([]Row, seeds)
	for i := range rows {
		rows[i] = peakRow(p, scales, out[i*len(scales):])
	}
	return rows, nil
}

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
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// SignificantGain reports whether architecture b's bandwidth mean exceeds
// a's beyond the sum of their confidence half-widths — a conservative
// "the gain is not seed noise" check used by the statistical tests.
func SignificantGain(a, b Replicated) bool {
	return b.BandwidthMeanGbps-a.BandwidthMeanGbps > a.BandwidthCI95Gbps+b.BandwidthCI95Gbps
}
