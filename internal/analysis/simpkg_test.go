package analysis

import "testing"

func TestIsSimPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"hetpnoc/internal/sim":    true,
		"hetpnoc/internal/fabric": true,
		"internal/torus":          true,
		"simfix/internal/packet":  true,
		"hetpnoc/cmd/hetpnocsim":  false,
		"hetpnoc/internal/report": false,
		"hetpnoc/internal/simx":   false,
		"hetpnoc":                 false,
	} {
		if got := IsSimPackage(path); got != want {
			t.Errorf("IsSimPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
