package experiments

import (
	"context"
	"fmt"

	"hetpnoc/internal/fabric"
	"hetpnoc/internal/traffic"
	"hetpnoc/internal/units"
)

// LatencyPoint is one point of a load-latency curve.
type LatencyPoint struct {
	LoadScale        float64    `json:"loadScale"`
	OfferedGbps      units.Gbps `json:"offeredGbps"`
	DeliveredGbps    units.Gbps `json:"deliveredGbps"`
	AvgLatencyCycles float64    `json:"avgLatencyCycles"`
	MaxLatencyCycles int64      `json:"maxLatencyCycles"`
}

// LoadLatencyCurve sweeps the offered load for one architecture/pattern
// pair and returns the classic NoC latency-throughput curve: latency
// rises gently until the network saturates, then climbs steeply while
// delivered bandwidth flattens. The thesis reports only the saturation
// point ("peak bandwidth"); the full curve is an extension used by the
// ablation analysis and the examples. The loads differ only in offered
// load, so the whole curve forks off one fabric build.
func LoadLatencyCurve(ctx context.Context, opts Options, arch fabric.Arch, pattern traffic.Pattern,
	set traffic.BandwidthSet, loads []float64) ([]LatencyPoint, error) {
	opts = opts.withDefaults()
	if len(loads) == 0 {
		loads = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}
	}
	specs := make([]fabric.Config, len(loads))
	for i, load := range loads {
		specs[i] = pointConfig(opts, Point{Set: set, Pattern: pattern, Arch: arch}, load)
	}
	out, err := runPlan(ctx, opts, specs)
	if err != nil {
		return nil, fmt.Errorf("experiments: latency curve: %w", err)
	}
	points := make([]LatencyPoint, len(loads))
	for i, load := range loads {
		res := out[i]
		points[i] = LatencyPoint{
			LoadScale:        load,
			OfferedGbps:      res.OfferedGbps,
			DeliveredGbps:    res.Stats.DeliveredGbps,
			AvgLatencyCycles: res.Stats.AvgLatencyCycles,
			MaxLatencyCycles: int64(res.Stats.MaxLatencyCycles),
		}
	}
	return points, nil
}
