package allocproof_test

import (
	"path/filepath"
	"testing"

	"hetpnoc/internal/analysis/allocproof"
	"hetpnoc/internal/analysis/analysistest"
	"hetpnoc/internal/analysis/gcobs"
)

// TestAllocproof feeds the analyzer a canned compiler report keyed to
// the fixtures' line numbers: a bounds check inside a simulator
// package's occupancy scan loop is reported, while one outside the loop
// and one in a non-simulator package's loop stay silent.
func TestAllocproof(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	router := filepath.Join(testdata, "src", "ap", "internal", "router", "router.go")
	tool := filepath.Join(testdata, "src", "ap", "cmd", "tool", "tool.go")
	report := &gcobs.Report{
		Dir:     filepath.Join(testdata, "src", "ap"),
		GcFlags: "-d=ssa/check_bce",
		Facts: []gcobs.Fact{
			{File: router, Line: 11, Col: 17, Text: "Found IsInBounds"}, // silent: outside the loop
			{File: router, Line: 15, Col: 8, Text: "Found IsInBounds"},  // reported
			{File: tool, Line: 10, Col: 9, Text: "Found IsInBounds"},    // silent: not a simulator package
		},
	}
	analysistest.RunModuleCache(t, testdata, allocproof.Analyzer,
		map[string]any{allocproof.ReportKey: report},
		"ap/internal/router", "ap/cmd/tool",
	)
}
