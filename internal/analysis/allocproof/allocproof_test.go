package allocproof_test

import (
	"path/filepath"
	"testing"

	"hetpnoc/internal/analysis/allocproof"
	"hetpnoc/internal/analysis/analysistest"
	"hetpnoc/internal/analysis/gcobs"
)

// TestAllocproof feeds the analyzer a canned compiler report keyed to
// the fixture's line numbers: escapes and bounds checks on hot lines
// must be reported, while panic-argument spans, coldcall-covered lines
// and bounds checks outside occupancy scan loops stay silent.
func TestAllocproof(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(testdata, "src", "ap", "hot", "hot.go")
	report := &gcobs.Report{
		Dir:     filepath.Join(testdata, "src", "ap", "hot"),
		GcFlags: "-m=2 -d=ssa/check_bce",
		Facts: []gcobs.Fact{
			// Silent: inside Step but not in a TrailingZeros scan loop.
			{File: file, Line: 13, Col: 15, Kind: gcobs.KindBoundsCheck, KindName: "bounds-check", Text: "Found IsInBounds"},
			// Reported: sink[i] store inside tick's occupancy scan loop.
			{File: file, Line: 22, Col: 4, Kind: gcobs.KindBoundsCheck, KindName: "bounds-check", Text: "Found IsInBounds"},
			// Silent: escape inside panic's argument span.
			{File: file, Line: 26, Col: 9, Kind: gcobs.KindEscape, KindName: "escape", Text: "newMsg(sink) escapes to heap"},
			// Silent: line covered by a //hetpnoc:coldcall directive.
			{File: file, Line: 29, Col: 2, Kind: gcobs.KindEscape, KindName: "escape", Text: "grown buffer escapes to heap"},
			// Reported: compiler-proven escape in hot-reachable leak.
			{File: file, Line: 34, Col: 9, Kind: gcobs.KindEscape, KindName: "escape", Text: "&v escapes to heap"},
		},
	}
	analysistest.RunModuleCache(t, testdata, allocproof.Analyzer,
		map[string]any{allocproof.ReportKey: report},
		"ap/hot",
	)
}
