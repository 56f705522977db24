package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for _, n := range []int{1, 2, 3, 17, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4242)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of %d uniform draws = %g, want ~0.5", n, mean)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		freq := float64(hits) / n
		if math.Abs(freq-p) > 0.01 {
			t.Fatalf("Bernoulli(%g) frequency = %g", p, freq)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

// TestChanceMatchesFloat64: ChanceOf(p) is the smallest 53-bit count
// whose Float64 is not below p, so a Draw against it answers as
// Float64() < p on every draw.
func TestChanceMatchesFloat64(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		p := []float64{r.Float64(), math.Ldexp(r.Float64(), -r.Intn(80)), 0, 1, 1.0 / 3, 1 - 0x1p-53, 0x1p-1074, math.NaN()}[i%8]
		c := ChanceOf(p)
		if c > 0 && !(float64(c-1)/(1<<53) < p) || c < 1<<53 && float64(c)/(1<<53) < p || c > 1<<53 {
			t.Fatalf("ChanceOf(%g) = %d, not ceil(p·2^53)", p, c)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(11)
	childA := parent.Split()
	childB := parent.Split()
	// The two children must produce different streams.
	same := 0
	for i := 0; i < 100; i++ {
		if childA.Uint64() == childB.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split children shared %d draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := NewRNG(11).Split()
	b := NewRNG(11).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}
