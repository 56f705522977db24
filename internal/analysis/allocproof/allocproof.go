// Package allocproof reports a bounds check the compiler failed to
// eliminate inside an occupancy-word scan loop of a simulator package:
// a loop that walks set bits with math/bits.TrailingZeros64. Those loops
// are the innermost kernels of the cycle loop, where a redundant check is
// pure per-flit overhead. The facts are the compiler's own
// (internal/analysis/gcobs): each "Found IsInBounds" the BCE pass left.
//
// No run can see a bounds check, so this check stays static. The cycle's
// other contracts are checked by running: zero allocations by
// internal/fabric's TestStepZeroAllocs and the root TestRunAllocations,
// determinism by the root TestPathEquivalence (its Beside path), each
// shown to kill the mutants of testdata/mutants (`make mutants`).
package allocproof

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/gcobs"
)

// Analyzer is the allocproof check.
var Analyzer = &analysis.Analyzer{
	Name: "allocproof",
	Doc: "report residual bounds checks in the simulator's occupancy-word scan loops\n\n" +
		"Builds the module with -gcflags='-d=ssa/check_bce' and flags every\n" +
		"bounds check the compiler left inside a loop of a simulator package\n" +
		"that walks set bits with math/bits.TrailingZeros64.",
	RunModule: run,
}

// Cache keys the driver may seed. DirKey tells the analyzer where to run
// the evidence build ("" = current directory's module); ReportKey hands
// it an already-collected *gcobs.Report (the driver collects once so it
// can also write the CI artifact).
const (
	DirKey    = "gcobs.dir"
	ReportKey = "gcobs.report"
)

func run(mp *analysis.ModulePass) error {
	report, err := reportFor(mp)
	if err != nil {
		return err
	}
	byFile := make(map[string][]gcobs.Fact)
	for _, f := range report.Facts {
		byFile[f.File] = append(byFile[f.File], f)
	}
	for _, u := range mp.Pkgs {
		if !analysis.IsSimPackage(u.Path) {
			continue
		}
		for _, file := range u.Files {
			tf := mp.Fset.File(file.Pos())
			facts := byFile[tf.Name()]
			if len(facts) == 0 {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
				default:
					return true
				}
				if !containsTrailingZeros(u.TypesInfo, n) {
					return true
				}
				for _, fact := range facts {
					if pos := posOf(tf, fact); pos >= n.Pos() && pos < n.End() {
						mp.Reportf(pos,
							fmt.Sprintf("bounds check not eliminated inside an occupancy word-scan loop: %s", fact.Text),
							"hoist the slice into a local, assert the length before the loop, or mask the index so BCE can prove it in range")
					}
				}
				return false // the outermost scan loop covers the ones it nests
			})
		}
	}
	return nil
}

// reportFor returns the driver-provided gcobs report, or collects one
// for the module directory named in the cache.
func reportFor(mp *analysis.ModulePass) (*gcobs.Report, error) {
	if r, ok := mp.Cache[ReportKey].(*gcobs.Report); ok {
		return r, nil
	}
	dir, _ := mp.Cache[DirKey].(string)
	r, err := gcobs.Collect(dir)
	if err != nil {
		return nil, err
	}
	if mp.Cache != nil {
		mp.Cache[ReportKey] = r
	}
	return r, nil
}

// posOf converts a fact's line and column to a position in file tf,
// clamped to the file.
func posOf(tf *token.File, fact gcobs.Fact) token.Pos {
	line := min(max(fact.Line, 1), tf.LineCount())
	pos := tf.LineStart(line) + token.Pos(max(fact.Col-1, 0))
	return min(pos, tf.Pos(tf.Size()))
}

// containsTrailingZeros reports whether the loop's text contains a call
// to a math/bits.TrailingZeros function — the signature of an
// occupancy-word scan.
func containsTrailingZeros(info *types.Info, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(nd ast.Node) bool {
		if found {
			return false
		}
		sel, ok := nd.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if f, ok := info.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "math/bits" && strings.HasPrefix(f.Name(), "TrailingZeros") {
			found = true
		}
		return true
	})
	return found
}
