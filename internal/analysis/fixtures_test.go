package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/analysistest"
	"hetpnoc/internal/analysis/apistable"
	"hetpnoc/internal/analysis/ctxflow"
	"hetpnoc/internal/analysis/dettaint"
	"hetpnoc/internal/analysis/errsink"
	"hetpnoc/internal/analysis/globalstate"
	"hetpnoc/internal/analysis/hotpathreach"
	"hetpnoc/internal/analysis/maprange"
)

// fixtures lists, per analyzer, the fixture packages under its own
// <name>/testdata/src whose // want comments it must reproduce exactly.
// A row of a module analyzer is one whole-program run over the listed
// packages and everything they import. allocproof is absent: its
// fixture needs a canned compiler report (allocproof_test.go).
var fixtures = []struct {
	analyzer *analysis.Analyzer
	pkgs     []string
}{
	{maprange.Analyzer, []string{"mfix/internal/fabric", "mfix/internal/report"}},
	{globalstate.Analyzer, []string{"gfix/internal/router"}},
	{ctxflow.Analyzer, []string{"cxfix"}},
	{errsink.Analyzer, []string{"eefix"}},
	{hotpathreach.Analyzer, []string{"reach/hot"}},
	{hotpathreach.Analyzer, []string{"hfix/hot"}},
	{dettaint.Analyzer, []string{"dt/internal/sim"}},
	{dettaint.Analyzer, []string{"simfix/internal/sim", "simfix/cmd/tool"}},
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
			if a.RunModule != nil {
				analysistest.RunModule(t, testdata, a, fx.pkgs...)
			} else {
				analysistest.Run(t, testdata, a, fx.pkgs...)
			}
		})
	}
}
