package analysis

import "strings"

// simPackages are the package-path suffixes that form the deterministic
// simulator core, whose occupancy scan loops allocproof checks.
var simPackages = []string{
	"internal/sim",
	"internal/fabric",
	"internal/router",
	"internal/xbar",
	"internal/core",
	"internal/traffic",
	"internal/packet",
	"internal/event",
	"internal/torus",
}

// IsSimPackage reports whether the package at path is part of the
// deterministic simulator core. A path matches when one of the
// simPackages suffixes is a whole-segment suffix of it (so
// "hetpnoc/internal/sim" matches "internal/sim" but
// "hetpnoc/internal/simtools" does not). Fixture packages under
// analysistest testdata re-use the same suffixes.
func IsSimPackage(path string) bool {
	for _, s := range simPackages {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}
