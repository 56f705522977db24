package stats

import (
	"math"
	"testing"

	"hetpnoc/internal/sim"
)

func TestWarmupEventsExcluded(t *testing.T) {
	c := NewCollector()
	// Events before StartMeasurement must not count.
	c.OnInject()
	c.OnDeliverFlit(32, 0)
	c.OnDeliverPacket(0, 10)
	c.OnDropRX()
	c.OnReject()
	c.OnRetransmit()
	c.OnLost()

	c.StartMeasurement(1000)
	c.Finish(2000)
	s := c.Summary()
	if s.PacketsInjected != 0 || s.PacketsDelivered != 0 || s.BitsDelivered != 0 ||
		s.PacketsDroppedRX != 0 || s.PacketsRejected != 0 || s.Retransmissions != 0 || s.PacketsLost != 0 {
		t.Fatalf("warm-up events leaked into the summary: %+v", s)
	}
	if s.WarmupDelivered != 1 {
		t.Fatalf("warm-up deliveries = %d, want 1", s.WarmupDelivered)
	}
}

func TestDeliveredBandwidth(t *testing.T) {
	c := NewCollector()
	c.StartMeasurement(1000)
	// 2048-bit packets, 100 of them over 9000 cycles at 2.5 GHz.
	for i := 0; i < 100; i++ {
		for f := 0; f < 64; f++ {
			c.OnDeliverFlit(32, 0)
		}
		c.OnDeliverPacket(1000, 5000)
	}
	c.Finish(10000)
	s := c.Summary()

	if s.MeasuredCycles != 9000 {
		t.Fatalf("measured %d cycles, want 9000", s.MeasuredCycles)
	}
	wantSeconds := 9000 * 400e-12
	if math.Abs(s.MeasuredSeconds-wantSeconds) > 1e-15 {
		t.Fatalf("measured %g s, want %g", s.MeasuredSeconds, wantSeconds)
	}
	wantGbps := float64(100*2048) / wantSeconds / 1e9
	if math.Abs(float64(s.DeliveredGbps)-wantGbps) > 1e-6 {
		t.Fatalf("delivered %g Gb/s, want %g", s.DeliveredGbps, wantGbps)
	}
	if s.FlitsDelivered != 6400 {
		t.Fatalf("flits = %d, want 6400", s.FlitsDelivered)
	}
}

func TestLatencyStats(t *testing.T) {
	c := NewCollector()
	c.StartMeasurement(0)
	c.OnDeliverPacket(0, 100)
	c.OnDeliverPacket(0, 300)
	c.Finish(1000)
	s := c.Summary()
	if s.AvgLatencyCycles != 200 {
		t.Fatalf("avg latency = %g, want 200", s.AvgLatencyCycles)
	}
	if s.MaxLatencyCycles != 300 {
		t.Fatalf("max latency = %d, want 300", s.MaxLatencyCycles)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	c := NewCollector()
	c.StartMeasurement(0)
	// Deliver 100 packets with latencies 1..100 (in shuffled-ish order).
	for i := 100; i >= 1; i-- {
		c.OnDeliverPacket(0, sim.Cycle(i))
	}
	c.Finish(1000)
	s := c.Summary()
	if s.P50LatencyCycles != 50 {
		t.Fatalf("p50 = %d, want 50", s.P50LatencyCycles)
	}
	if s.P99LatencyCycles != 99 {
		t.Fatalf("p99 = %d, want 99", s.P99LatencyCycles)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %d", got)
	}
	if got := percentile([]sim.Cycle{7}, 0.99); got != 7 {
		t.Fatalf("single-sample percentile = %d, want 7", got)
	}
}

func TestDeliveredCounter(t *testing.T) {
	c := NewCollector()
	c.StartMeasurement(0)
	if c.Delivered() != 0 {
		t.Fatal("fresh collector has deliveries")
	}
	c.OnDeliverPacket(0, 1)
	c.OnDeliverPacket(0, 2)
	if c.Delivered() != 2 {
		t.Fatalf("Delivered() = %d, want 2", c.Delivered())
	}
}

func TestDropAccounting(t *testing.T) {
	c := NewCollector()
	c.StartMeasurement(0)
	c.OnDropRX()
	c.OnDropRX()
	c.OnRetransmit()
	c.OnLost()
	c.OnReject()
	c.Finish(100)
	s := c.Summary()
	if s.PacketsDroppedRX != 2 || s.Retransmissions != 1 || s.PacketsLost != 1 || s.PacketsRejected != 1 {
		t.Fatalf("drop accounting wrong: %+v", s)
	}
}

func TestJainIndex(t *testing.T) {
	tests := []struct {
		name string
		xs   []int64
		want float64
	}{
		{"even", []int64{10, 10, 10, 10}, 1.0},
		{"one-taker", []int64{40, 0, 0, 0}, 0.25},
		{"empty", nil, 0},
		{"all-zero", []int64{0, 0}, 0},
		{"half", []int64{20, 20, 0, 0}, 0.5},
	}
	for _, tt := range tests {
		if got := JainIndex(tt.xs); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s: JainIndex = %g, want %g", tt.name, got, tt.want)
		}
	}
}

func TestPerClusterFairnessInSummary(t *testing.T) {
	c := NewCollector()
	c.SetClusterCount(4)
	c.StartMeasurement(0)
	// Clusters 0 and 1 each receive one flit; 2 and 3 nothing.
	c.OnDeliverFlit(32, 0)
	c.OnDeliverFlit(32, 1)
	c.Finish(100)
	if got := c.Summary().FairnessJain; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("fairness = %g, want 0.5", got)
	}
}
