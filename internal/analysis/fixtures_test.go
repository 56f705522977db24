package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/analysistest"
	"hetpnoc/internal/analysis/apistable"
	"hetpnoc/internal/analysis/errsink"
)

// fixtures lists, per analyzer, the fixture packages under its own
// <name>/testdata/src whose // want comments it must reproduce exactly.
// allocproof is absent: its fixture needs a canned compiler report
// (allocproof_test.go).
var fixtures = []struct {
	analyzer *analysis.Analyzer
	pkgs     []string
}{
	{errsink.Analyzer, []string{"eefix"}},
	{apistable.Analyzer, []string{"apfix"}},
}

// TestFixtures runs every row as the subtest <analyzer>/<fixture root>.
func TestFixtures(t *testing.T) {
	for _, fx := range fixtures {
		a := fx.analyzer
		root, _, _ := strings.Cut(fx.pkgs[0], "/")
		t.Run(a.Name+"/"+root, func(t *testing.T) {
			testdata, err := filepath.Abs(filepath.Join(a.Name, "testdata"))
			if err != nil {
				t.Fatal(err)
			}
			analysistest.Run(t, testdata, a, fx.pkgs...)
		})
	}
}
