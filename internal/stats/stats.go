// Package stats collects the metrics the thesis reports: delivered
// bandwidth (peak bandwidth is its maximum over an offered-load sweep),
// packet counts including drops — "the progress of the data flits ...
// accounting for those flits that reach the destination as well as those
// that are dropped" (§3.4.1) — latency, and the inputs to the
// energy-per-message calculation.
package stats

import (
	"math"
	"sort"

	"hetpnoc/internal/sim"
	"hetpnoc/internal/units"
)

// Collector accumulates run metrics. Events before StartMeasurement (the
// thesis's 1,000 reset cycles) are counted separately and excluded from
// reported rates.
type Collector struct {
	state
}

// state is the collector's checkpointed part: every metric it
// accumulates.
type state struct {
	measuring bool
	startAt   sim.Cycle
	endAt     sim.Cycle

	// total counts packet events over the whole run; atStart latches it
	// when the measured window opens, so the window's counts are the
	// difference and the warm-up's are the latch.
	total   Totals
	atStart Totals

	bitsDelivered  int64
	flitsDelivered int64

	latencySum   int64
	latencyCount int64
	latencyMax   sim.Cycle
	latencies    []sim.Cycle

	bitsPerCluster []int64
}

// copyFrom makes dst a copy of src that shares no backing array with it,
// reusing dst's arrays.
func (dst *state) copyFrom(src *state) {
	keep := *dst
	*dst = *src
	dst.latencies = append(keep.latencies[:0], src.latencies...)
	dst.bitsPerCluster = append(keep.bitsPerCluster[:0], src.bitsPerCluster...)
}

// Totals are un-gated whole-run packet counters (the warm-up window
// included, unlike Summary). At any instant the conservation invariant
// Injected == Delivered + Lost + live packets holds, where the live term
// is the fabric's LivePackets: a packet that entered a source queue is in
// exactly one of the delivered, lost or still-in-flight states.
// Retransmission copies retire their predecessor atomically and so never
// unbalance the equation.
type Totals struct {
	Injected      int64
	Rejected      int64
	Delivered     int64
	DroppedRX     int64
	Lost          int64
	Retransmitted int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{}
}

// SetClusterCount sizes the per-cluster delivery accounting.
func (c *Collector) SetClusterCount(n int) {
	c.bitsPerCluster = make([]int64, n)
}

// StartMeasurement begins the measured window at cycle now.
func (c *Collector) StartMeasurement(now sim.Cycle) {
	c.measuring = true
	c.startAt = now
	c.atStart = c.total
}

// Finish closes the measured window at cycle end (exclusive).
func (c *Collector) Finish(end sim.Cycle) {
	c.endAt = end
}

// OnInject records a packet entering its source queue.
func (c *Collector) OnInject() { c.total.Injected++ }

// OnReject records a packet refused at a full source queue.
func (c *Collector) OnReject() { c.total.Rejected++ }

// OnDeliverFlit records bits of one flit ejected at its destination, on
// behalf of the given source cluster (service fairness is about who got
// to send, not who happened to receive).
func (c *Collector) OnDeliverFlit(bits int, srcCluster int) {
	if !c.measuring {
		return
	}
	c.flitsDelivered++
	c.bitsDelivered += int64(bits)
	if srcCluster >= 0 && srcCluster < len(c.bitsPerCluster) {
		c.bitsPerCluster[srcCluster] += int64(bits)
	}
}

// OnDeliverPacket records a complete packet arriving; born is the cycle
// its logical message was first generated.
func (c *Collector) OnDeliverPacket(born, now sim.Cycle) {
	c.total.Delivered++
	if !c.measuring {
		return
	}
	lat := now - born
	c.latencySum += int64(lat)
	c.latencyCount++
	c.latencies = append(c.latencies, lat)
	if lat > c.latencyMax {
		c.latencyMax = lat
	}
}

// OnDropRX records a packet refused at the photonic receive side.
func (c *Collector) OnDropRX() { c.total.DroppedRX++ }

// OnLost records a packet abandoned after exhausting its retries.
func (c *Collector) OnLost() { c.total.Lost++ }

// OnRetransmit records a retransmission attempt being scheduled.
func (c *Collector) OnRetransmit() { c.total.Retransmitted++ }

// Totals returns the whole-run packet counters.
func (c *Collector) Totals() Totals { return c.total }

// warmup returns the counts the warm-up window accumulated: the latch once
// measurement has started, everything so far before that.
func (c *Collector) warmup() Totals {
	if c.measuring {
		return c.atStart
	}
	return c.total
}

// Delivered returns the packets delivered so far in the measured window.
func (c *Collector) Delivered() int64 { return c.total.Delivered - c.warmup().Delivered }

// CollectorSnapshot is a checkpoint of the collector: a copy of its
// state.
type CollectorSnapshot = state

// Snapshot copies the collector's state into dst, reusing its arrays.
func (c *Collector) Snapshot(dst *CollectorSnapshot) { dst.copyFrom(&c.state) }

// Restore rewinds the collector to a snapshot, leaving the snapshot
// intact for repeated restores.
func (c *Collector) Restore(s *CollectorSnapshot) { c.state.copyFrom(s) }

// Summary is the collector's read-out.
type Summary struct {
	MeasuredCycles  sim.Cycle
	MeasuredSeconds float64

	PacketsInjected  int64
	PacketsDelivered int64
	PacketsDroppedRX int64
	PacketsRejected  int64
	PacketsLost      int64
	Retransmissions  int64

	BitsDelivered  int64
	FlitsDelivered int64

	// DeliveredGbps is the aggregate rate of bits successfully arriving
	// at all cores (the thesis's bandwidth metric, §3.4.1.1).
	DeliveredGbps units.Gbps

	AvgLatencyCycles float64
	MaxLatencyCycles sim.Cycle
	P50LatencyCycles sim.Cycle
	P99LatencyCycles sim.Cycle

	// FairnessJain is Jain's fairness index over the source clusters'
	// delivered bits: 1.0 means every cluster's traffic was served
	// evenly, 1/n means one cluster's traffic took everything.
	// Quantifies the starvation behaviour the DBA policies differ on.
	FairnessJain float64

	WarmupDelivered int64
}

// Summary computes the read-out; Finish must have been called.
func (c *Collector) Summary() Summary {
	cycles := c.endAt - c.startAt
	seconds := units.CyclesToSeconds(cycles)
	warm := c.warmup()
	s := Summary{
		MeasuredCycles:   cycles,
		MeasuredSeconds:  seconds,
		PacketsInjected:  c.total.Injected - warm.Injected,
		PacketsDelivered: c.total.Delivered - warm.Delivered,
		PacketsDroppedRX: c.total.DroppedRX - warm.DroppedRX,
		PacketsRejected:  c.total.Rejected - warm.Rejected,
		PacketsLost:      c.total.Lost - warm.Lost,
		Retransmissions:  c.total.Retransmitted - warm.Retransmitted,
		BitsDelivered:    c.bitsDelivered,
		FlitsDelivered:   c.flitsDelivered,
		MaxLatencyCycles: c.latencyMax,
		WarmupDelivered:  warm.Delivered,
	}
	if seconds > 0 {
		s.DeliveredGbps = units.RateGbps(float64(c.bitsDelivered), seconds)
	}
	if c.latencyCount > 0 {
		s.AvgLatencyCycles = float64(c.latencySum) / float64(c.latencyCount)
		sorted := make([]sim.Cycle, len(c.latencies))
		copy(sorted, c.latencies)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.P50LatencyCycles = percentile(sorted, 0.50)
		s.P99LatencyCycles = percentile(sorted, 0.99)
	}
	s.FairnessJain = JainIndex(c.bitsPerCluster)
	return s
}

// JainIndex returns Jain's fairness index (sum x)^2 / (n * sum x^2) over
// the sample, or 0 for an empty or all-zero sample.
func JainIndex(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		v := float64(x)
		sum += v
		sumSq += float64(v * v) // rounded: no fused multiply-add on any GOARCH
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// percentile returns the p-quantile of a sorted latency sample using the
// nearest-rank method.
func percentile(sorted []sim.Cycle, p float64) sim.Cycle {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
