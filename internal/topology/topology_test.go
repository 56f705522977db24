package topology

import (
	"testing"
	"testing/quick"
)

func TestDefaultTopology(t *testing.T) {
	topo := Default()
	if topo.Cores() != 64 {
		t.Fatalf("Cores() = %d, want 64", topo.Cores())
	}
	if topo.Clusters() != 16 {
		t.Fatalf("Clusters() = %d, want 16", topo.Clusters())
	}
	if topo.ClusterSize() != 4 {
		t.Fatalf("ClusterSize() = %d, want 4", topo.ClusterSize())
	}
}

func TestClusterMapping(t *testing.T) {
	topo := Default()
	tests := []struct {
		core    CoreID
		cluster ClusterID
		local   int
	}{
		{0, 0, 0},
		{3, 0, 3},
		{4, 1, 0},
		{63, 15, 3},
		{30, 7, 2},
	}
	for _, tt := range tests {
		if got := topo.ClusterOf(tt.core); got != tt.cluster {
			t.Errorf("ClusterOf(%d) = %d, want %d", tt.core, got, tt.cluster)
		}
		if got := topo.LocalIndex(tt.core); got != tt.local {
			t.Errorf("LocalIndex(%d) = %d, want %d", tt.core, got, tt.local)
		}
		if got := topo.CoreAt(tt.cluster, tt.local); got != tt.core {
			t.Errorf("CoreAt(%d, %d) = %d, want %d", tt.cluster, tt.local, got, tt.core)
		}
	}
}

func TestCoreAtRoundTrip(t *testing.T) {
	topo := Default()
	// Property: CoreAt(ClusterOf(c), LocalIndex(c)) == c for every core.
	f := func(raw uint8) bool {
		c := CoreID(int(raw) % topo.Cores())
		return topo.CoreAt(topo.ClusterOf(c), topo.LocalIndex(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoresOf(t *testing.T) {
	topo := Default()
	seen := make(map[CoreID]bool)
	for cl := 0; cl < topo.Clusters(); cl++ {
		cores := topo.CoresOf(ClusterID(cl))
		if len(cores) != topo.ClusterSize() {
			t.Fatalf("cluster %d has %d cores", cl, len(cores))
		}
		for _, c := range cores {
			if seen[c] {
				t.Fatalf("core %d appears in two clusters", c)
			}
			seen[c] = true
			if topo.ClusterOf(c) != ClusterID(cl) {
				t.Fatalf("core %d listed in cluster %d but maps to %d", c, cl, topo.ClusterOf(c))
			}
		}
	}
	if len(seen) != topo.Cores() {
		t.Fatalf("clusters cover %d cores, want %d", len(seen), topo.Cores())
	}
}

func TestValidity(t *testing.T) {
	topo := Default()
	if !topo.ValidCore(0) || !topo.ValidCore(63) {
		t.Fatal("boundary cores reported invalid")
	}
	if topo.ValidCore(-1) || topo.ValidCore(64) {
		t.Fatal("out-of-range cores reported valid")
	}
}
