// Package allocproof upgrades hot-path allocation enforcement from
// heuristic to compiler evidence. Where hotpathreach pattern-matches
// syntax that usually allocates, this analyzer consumes the compiler's
// own escape-analysis and bounds-check diagnostics (internal/analysis/
// gcobs) and reports, for every function reachable from a
// //hetpnoc:hotpath root:
//
//   - a value the compiler proved escapes to the heap — a real heap
//     allocation in hot code, however innocent the syntax looks;
//   - a bounds check the BCE pass failed to eliminate inside an
//     occupancy-word scan loop (a loop iterating set bits with
//     math/bits.TrailingZeros64) — the innermost kernels of the cycle
//     loop, where a redundant check is pure per-flit overhead.
//
// Deliberate cold exits are the same ones hotpathreach honors: a
// //hetpnoc:coldcall directive severs the function (doc comment) or the
// call (call site) from the reachable set, and escape facts on a
// coldcall-covered line are skipped. Escapes inside the arguments of
// panic or fmt.Errorf calls are skipped too: invariant-violation paths
// construct their message exactly once, on the way out.
//
// When the compiler proves an escape on a line the heuristic analyzer
// did not flag, the diagnostic says so — each such disagreement is a
// candidate new hotpathreach.Check rule.
package allocproof

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/callgraph"
	"hetpnoc/internal/analysis/gcobs"
	"hetpnoc/internal/analysis/hotpathreach"
)

// Analyzer is the allocproof check.
var Analyzer = &analysis.Analyzer{
	Name: "allocproof",
	Doc: "report compiler-proven heap escapes and residual bounds checks in hot-path-reachable functions\n\n" +
		"Builds the module with -gcflags='-m=2 -d=ssa/check_bce', keys the\n" +
		"escape and BCE diagnostics by position, and flags every fact that\n" +
		"lands in a function reachable from a //hetpnoc:hotpath root:\n" +
		"heap escapes anywhere, bounds checks inside occupancy-word scan\n" +
		"loops. Sever deliberate cold paths with //hetpnoc:coldcall <why>.",
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
	reach := hotpathreach.FromPass(mp)
	g := reach.Graph
	dirs := analysis.NewDirectiveCache(mp.Fset)

	// Index the facts by file, sorted by position for deterministic
	// reporting.
	byFile := make(map[string][]gcobs.Fact)
	for _, f := range report.Facts {
		byFile[f.File] = append(byFile[f.File], f)
	}
	for _, facts := range byFile {
		sort.Slice(facts, func(i, j int) bool {
			if facts[i].Line != facts[j].Line {
				return facts[i].Line < facts[j].Line
			}
			return facts[i].Col < facts[j].Col
		})
	}

	for _, n := range g.Sorted {
		if !reach.Reached(n) {
			continue
		}
		file := mp.Fset.File(n.Decl.Pos())
		if file == nil {
			continue
		}
		facts := byFile[file.Name()]
		if len(facts) == 0 {
			continue
		}
		start := file.Line(n.Decl.Pos())
		end := file.Line(n.Decl.End())

		fn := &hotFunc{mp: mp, n: n, file: file, dirs: dirs}
		chain := reach.ChainOf(n)
		for _, fact := range facts {
			if fact.Line < start || fact.Line > end {
				continue
			}
			switch fact.Kind {
			case gcobs.KindEscape, gcobs.KindMoved:
				fn.checkEscape(fact, chain)
			case gcobs.KindBoundsCheck:
				fn.checkBounds(fact, chain)
			}
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

// hotFunc carries the lazily-computed per-function context: cold
// argument ranges, occupancy-loop ranges and the set of lines the
// heuristic analyzer flags.
type hotFunc struct {
	mp   *analysis.ModulePass
	n    *callgraph.Node
	file *token.File
	dirs *analysis.DirectiveCache

	built          bool
	coldRanges     []posRange // panic(...) / fmt.Errorf(...) argument spans
	scanLoops      []posRange // occupancy word-scan loop bodies
	heuristicLines map[int]bool
}

type posRange struct{ pos, end token.Pos }

func (h *hotFunc) build() {
	if h.built {
		return
	}
	h.built = true
	info := h.n.Unit.TypesInfo

	ast.Inspect(h.n.Decl, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			if isColdCtor(info, nd) && len(nd.Args) > 0 {
				h.coldRanges = append(h.coldRanges, posRange{nd.Args[0].Pos(), nd.End()})
			}
		case *ast.ForStmt:
			if containsTrailingZeros(info, nd) {
				h.scanLoops = append(h.scanLoops, posRange{nd.Pos(), nd.End()})
			}
		case *ast.RangeStmt:
			if containsTrailingZeros(info, nd) {
				h.scanLoops = append(h.scanLoops, posRange{nd.Pos(), nd.End()})
			}
		}
		return true
	})

	// The heuristic analyzer's view of the same body, for disagreement
	// flagging: run hotpathreach.Check with an intercepted reporter.
	h.heuristicLines = make(map[int]bool)
	pass := h.mp.PassFor(h.n.Unit)
	pass.Report = func(d analysis.Diagnostic) {
		if f := h.mp.Fset.File(d.Pos); f == h.file {
			h.heuristicLines[f.Line(d.Pos)] = true
		}
	}
	hotpathreach.Check(pass, h.n.Decl)
}

// checkEscape reports a compiler-proven heap allocation, unless the line
// is a declared or structural cold path.
func (h *hotFunc) checkEscape(fact gcobs.Fact, chain string) {
	h.build()
	pos := h.posOf(fact)
	if h.coldCovered(fact) {
		return
	}
	for _, r := range h.coldRanges {
		if pos >= r.pos && pos < r.end {
			return
		}
	}
	msg := fmt.Sprintf("compiler-proven heap allocation on the hot path: %s (hot path: %s)", fact.Text, chain)
	if !h.heuristicLines[fact.Line] {
		msg += " [hotpathreach heuristics missed this]"
	}
	h.mp.Reportf(pos, msg,
		"restructure to reuse a preallocated buffer, or sever a deliberate slow path with //hetpnoc:coldcall <why>")
}

// checkBounds reports a residual bounds check inside an occupancy
// word-scan loop.
func (h *hotFunc) checkBounds(fact gcobs.Fact, chain string) {
	h.build()
	pos := h.posOf(fact)
	if h.coldCovered(fact) {
		return
	}
	inLoop := false
	for _, r := range h.scanLoops {
		if pos >= r.pos && pos < r.end {
			inLoop = true
			break
		}
	}
	if !inLoop {
		return
	}
	h.mp.Reportf(pos,
		fmt.Sprintf("bounds check not eliminated inside an occupancy word-scan loop (hot path: %s)", chain),
		"hoist the slice into a local, assert the length before the loop, or mask the index so BCE can prove it in range")
}

// coldCovered reports whether the fact's line carries (or sits under) a
// //hetpnoc:coldcall directive — the statement is a declared slow path,
// so its operands escaping is the justified cost of taking it.
func (h *hotFunc) coldCovered(fact gcobs.Fact) bool {
	d := h.dirs.For(h.n.Unit, h.posOf(fact))
	if d == nil {
		return false
	}
	_, ok := d.CoveringLine(fact.Line, analysis.DirectiveColdcall)
	return ok
}

// posOf converts a fact's file/line/col to a token.Pos inside the
// function's file.
func (h *hotFunc) posOf(fact gcobs.Fact) token.Pos {
	line := fact.Line
	if line < 1 {
		line = 1
	}
	if line > h.file.LineCount() {
		line = h.file.LineCount()
	}
	pos := h.file.LineStart(line)
	// Advance by col-1 bytes, clamped to the line (LineStart of the next
	// line bounds it).
	if fact.Col > 1 {
		pos += token.Pos(fact.Col - 1)
		if end := h.file.Pos(h.file.Size()); pos > end {
			pos = end
		}
	}
	return pos
}

// isColdCtor reports whether call is panic(...) or fmt.Errorf(...):
// error-construction paths whose operands escape exactly once, on the
// way out of the simulation.
func isColdCtor(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		pn, ok := info.Uses[id].(*types.PkgName)
		if !ok {
			return false
		}
		path := pn.Imported().Path()
		if path == "fmt" && fun.Sel.Name == "Errorf" {
			return true
		}
		if path == "errors" && fun.Sel.Name == "New" {
			return true
		}
	}
	return false
}

// containsTrailingZeros reports whether the loop's text contains a call
// to math/bits.TrailingZeros64 — the signature of an occupancy-word
// scan.
func containsTrailingZeros(info *types.Info, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(nd ast.Node) bool {
		if found {
			return false
		}
		sel, ok := nd.(*ast.SelectorExpr)
		if !ok || !strings.HasPrefix(sel.Sel.Name, "TrailingZeros") {
			return true
		}
		if f, ok := info.Uses[sel.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "math/bits" {
			found = true
		}
		return true
	})
	return found
}
