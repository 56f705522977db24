package traffic

import (
	"fmt"
	"sort"

	"hetpnoc/internal/topology"
)

// SkewFrequencies returns the "frequency of communication" row of Table
// 3-1 for a skew level: the fraction of all traffic generated by
// applications of each bandwidth class, highest class first. With
// increasing skew, high-bandwidth applications dominate the traffic.
// The bool reports whether the level exists (1, 2 or 3).
func SkewFrequencies(level int) ([4]float64, bool) {
	switch level {
	case 1:
		return [4]float64{0.50, 0.25, 0.125, 0.125}, true
	case 2:
		return [4]float64{0.75, 0.125, 0.0625, 0.0625}, true
	case 3:
		return [4]float64{0.90, 0.05, 0.025, 0.025}, true
	}
	return [4]float64{}, false
}

// Skewed is the skewed traffic pattern family of §3.4.1. Level selects the
// Table 3-1 row (1, 2 or 3).
//
// The table specifies traffic shares; the simulator needs a mapping of
// applications to clusters. Each cluster runs one application of one
// bandwidth class (its four cores share the class, each injecting a
// quarter of it), and cluster counts per class are apportioned so the
// aggregate injected-traffic share of each class matches the table: the
// number of clusters of class k is proportional to frequency_k / rate_k
// (largest-remainder rounding). Destinations are uniform over foreign
// clusters.
type Skewed struct {
	Level int
}

// Name implements Pattern.
func (s Skewed) Name() string { return fmt.Sprintf("skewed%d", s.Level) }

// Assign implements Pattern.
func (s Skewed) Assign(set BandwidthSet) (Assignment, error) {
	freq, ok := SkewFrequencies(s.Level)
	if !ok {
		return Assignment{}, fmt.Errorf("traffic: unknown skew level %d", s.Level)
	}

	counts, err := apportionClusters(chip.Clusters(), freq, set.ClassGbps)
	if err != nil {
		return Assignment{}, err
	}

	cores := make([]CoreProfile, chip.Cores())
	cluster := 0
	for class, n := range counts {
		for i := 0; i < n; i++ {
			cl := topology.ClusterID(cluster)
			rate := set.ClassGbps[class]
			for _, core := range chip.CoresOf(cl) {
				cores[core] = CoreProfile{
					RateGbps:   rate / float64(chip.ClusterSize()),
					DemandGbps: rate,
					PickDest:   uniformDest(cl),
				}
			}
			cluster++
		}
	}
	return Assignment{Name: s.Name(), Cores: cores}, nil
}

// apportionClusters distributes clusters among the four bandwidth classes
// with weights frequency/rate, using the largest-remainder method. The
// weights make each class's share of injected traffic (count x rate) match
// its frequency share.
func apportionClusters(clusters int, freq [4]float64, rates [4]float64) ([4]int, error) {
	var weights [4]float64
	var total float64
	for i := range weights {
		if rates[i] <= 0 {
			return [4]int{}, fmt.Errorf("traffic: class %d rate must be positive", i)
		}
		weights[i] = freq[i] / rates[i]
		total += weights[i]
	}
	if total <= 0 {
		return [4]int{}, fmt.Errorf("traffic: frequencies sum to zero")
	}

	var counts [4]int
	var remainders [4]float64
	assigned := 0
	for i := range weights {
		// Rounded before int() and the remainder, so a fused
		// multiply-subtract cannot move a cluster between counts.
		exact := float64(weights[i] / total * float64(clusters))
		counts[i] = int(exact)
		remainders[i] = exact - float64(counts[i])
		assigned += counts[i]
	}

	order := []int{0, 1, 2, 3}
	sort.SliceStable(order, func(a, b int) bool {
		return remainders[order[a]] > remainders[order[b]]
	})
	for i := 0; assigned < clusters; i++ {
		counts[order[i%len(order)]]++
		assigned++
	}
	return counts, nil
}
