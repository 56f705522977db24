// Package dettaint forbids nondeterminism in the simulator core, both
// used directly and laundered through the call graph. Two runs with the
// same seed must be bit-identical (internal/sim package doc), so all
// randomness must flow through sim.RNG and all time through sim.Clock /
// sim.Cycle. Tooling packages (cmd/*, internal/report, examples) are
// exempt — until a simulator package calls into them.
//
// Direct use, inside simulator packages: an import of math/rand,
// math/rand/v2 or crypto/rand, any reference to a wall-clock member of
// package time, and testing/quick's unseeded driver are reported where
// they stand.
//
// Laundered use: for every module function the analyzer computes
// whether its execution can observe a nondeterminism source:
//
//   - calls into the same standard-library entropy and wall-clock APIs;
//   - range statements over maps in non-sim module packages without an
//     //hetpnoc:orderfree justification (maprange already covers sim
//     packages).
//
// Taint propagates caller-ward over all call-graph edges until
// fixpoint. A call from a simulator-package function to a tainted
// helper (internal/stats, internal/topology, ...) is an error; the
// diagnostic carries the taint chain from the call site down to the
// intrinsic source.
//
// //hetpnoc:detsafe <why> on a function's doc comment declares that
// its nondeterminism never reaches simulator state — the canonical case
// is a property test that deliberately samples random inputs and prints
// any counterexample. A detsafe function is treated as clean and its
// body's reports are suppressed.
package dettaint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/callgraph"
	"hetpnoc/internal/analysis/maprange"
)

// Analyzer is the dettaint check.
var Analyzer = &analysis.Analyzer{
	Name: "dettaint",
	Doc: "forbid nondeterminism sources in simulator packages, direct or through module helpers\n\n" +
		"Simulator state may only advance from seeded sim.RNG draws and the\n" +
		"sim.Cycle clock. math/rand, crypto/rand, wall-clock time and\n" +
		"testing/quick are reported where a simulator package uses them;\n" +
		"taint from the same sources and from order-sensitive map ranges\n" +
		"propagates up the call graph, and a sim-package call to a tainted\n" +
		"helper is reported with the full taint chain. Declare deliberate\n" +
		"sampling with //hetpnoc:detsafe <why>.",
	RunModule: run,
}

// forbiddenImports are packages whose mere presence in a simulator
// package is a violation: every API they export is a nondeterminism
// source (or, for crypto/rand, an entropy source the simulator must
// never need).
var forbiddenImports = map[string]string{
	"math/rand":    "use the run-owned *sim.RNG instead",
	"math/rand/v2": "use the run-owned *sim.RNG instead",
	"crypto/rand":  "the simulator must not consume OS entropy",
}

// forbiddenTime are the wall-clock members of package time. Types and
// constants (time.Duration, time.Second) remain usable for reporting
// physical quantities; anything that reads or waits on the host clock
// does not.
var forbiddenTime = map[string]string{
	"Now":       "derive timestamps from the sim.Cycle counter",
	"Since":     "subtract sim.Cycle values instead",
	"Until":     "subtract sim.Cycle values instead",
	"Sleep":     "keep future work as state keyed by its due sim.Cycle and fire it from the step loop",
	"After":     "keep future work as state keyed by its due sim.Cycle and fire it from the step loop",
	"AfterFunc": "keep future work as state keyed by its due sim.Cycle and fire it from the step loop",
	"Tick":      "derive recurring work from the sim.Cycle counter in the step loop",
	"NewTimer":  "keep future work as state keyed by its due sim.Cycle and fire it from the step loop",
	"NewTicker": "derive recurring work from the sim.Cycle counter in the step loop",
}

// isSource reports whether member name of the package at path is a
// nondeterminism source: anything in a forbidden import, a wall-clock
// member of time, or testing/quick's Check drivers, which draw from an
// unseeded rand.Source unless a Config supplies one.
func isSource(path, name string) bool {
	switch path {
	case "time":
		_, bad := forbiddenTime[name]
		return bad
	case "testing/quick":
		return strings.HasPrefix(name, "Check")
	}
	_, bad := forbiddenImports[path]
	return bad
}

// taint records how a function first became tainted: either an
// intrinsic source inside its own body (next == nil) or a call to an
// already-tainted module function.
type taint struct {
	source string          // intrinsic: display name of the source
	pos    token.Pos       // source position / call-site position
	next   *callgraph.Node // propagated: the tainted callee
}

func run(mp *analysis.ModulePass) error {
	g := callgraph.FromPass(mp)
	dirs := analysis.NewDirectiveCache(mp.Fset)

	detsafe := make(map[*callgraph.Node]bool)
	for _, n := range g.Sorted {
		dir, ok := analysis.FuncDirective(n.Decl, analysis.DirectiveDetsafe)
		if !ok {
			continue
		}
		if dir.Arg == "" {
			mp.Reportf(n.Decl.Name.Pos(),
				"//hetpnoc:detsafe needs a justification for why the nondeterminism never reaches simulator state",
				"//hetpnoc:detsafe <why sampling here is deliberate and contained>")
		}
		detsafe[n] = true
	}

	// Seed: intrinsic taint, in deterministic node order.
	taints := make(map[*callgraph.Node]*taint)
	var queue []*callgraph.Node
	for _, n := range g.Sorted {
		if detsafe[n] {
			continue
		}
		if t := intrinsic(mp, dirs, n); t != nil {
			taints[n] = t
			queue = append(queue, n)
		}
	}

	// Propagate caller-ward, BFS so recorded chains are shortest.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.In {
			c := e.Caller
			if detsafe[c] {
				continue
			}
			if _, done := taints[c]; done {
				continue
			}
			taints[c] = &taint{pos: e.Pos(), next: n}
			queue = append(queue, c)
		}
	}

	// Report sim-package violations: direct uses first, then calls to
	// tainted helpers outside the sim core. Tainted sim-package callees
	// hold their own report at the source, so re-reporting every caller
	// would be noise.
	for _, u := range mp.Pkgs {
		if isSim(u) {
			reportDirect(mp, u)
		}
	}
	for _, n := range g.Sorted {
		if !isSim(n.Unit) || detsafe[n] {
			continue
		}
		for _, e := range n.Out {
			callee := e.Callee
			t, bad := taints[callee]
			if !bad || isSim(callee.Unit) {
				continue
			}
			mp.Reportf(e.Pos(),
				fmt.Sprintf("call to %s is nondeterministic in a simulator package (taint: %s)",
					callee.Name(), chainOf(callee, t, taints)),
				"make the helper deterministic, thread a seeded source through it, or annotate //hetpnoc:detsafe <why>")
		}
	}
	return nil
}

// isSim reports whether unit u (or, for an external test package, the
// package it tests) is part of the simulator core.
func isSim(u *analysis.PackageUnit) bool {
	return analysis.IsSimPackage(strings.TrimSuffix(u.Path, "_test"))
}

// reportDirect reports the nondeterminism sources simulator package u
// uses itself: forbidden imports at the import, wall-clock and
// testing/quick members at each reference outside a detsafe function.
func reportDirect(mp *analysis.ModulePass, u *analysis.PackageUnit) {
	pass := mp.PassFor(u)
	for _, file := range u.Files {
		for _, imp := range file.Imports {
			// The path literal is always a valid quoted string once
			// the file type-checks.
			path := imp.Path.Value[1 : len(imp.Path.Value)-1]
			if hint, ok := forbiddenImports[path]; ok {
				mp.Reportf(imp.Pos(),
					fmt.Sprintf("import of %s is forbidden in simulator packages: %s", path, hint),
					"thread a *sim.RNG (seeded from the run config) through the component")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				_, safe := analysis.FuncDirective(fd, analysis.DirectiveDetsafe)
				return !safe
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn := pass.PkgNameOf(ident)
			if pn == nil {
				return true
			}
			// Members of a forbidden import are not listed here: the
			// import line already carries their report.
			switch path, name := pn.Imported().Path(), sel.Sel.Name; {
			case path == "time" && isSource(path, name):
				mp.Reportf(sel.Pos(),
					fmt.Sprintf("time.%s reads the wall clock, which breaks run reproducibility: %s", name, forbiddenTime[name]),
					"express the quantity in sim.Cycle ticks")
			case path == "testing/quick" && isSource(path, name):
				mp.Reportf(sel.Pos(),
					fmt.Sprintf("%s.%s draws unseeded randomness in a simulator package, which breaks run reproducibility", path, name),
					"seed the source explicitly, or annotate the function //hetpnoc:detsafe <why>")
			}
			return true
		})
	}
}

// intrinsic returns n's own-body taint, or nil: an external call to a
// nondeterminism source, or an unjustified range over a map in a
// non-sim package.
func intrinsic(mp *analysis.ModulePass, dirs *analysis.DirectiveCache, n *callgraph.Node) *taint {
	for _, ext := range n.External {
		if pkg := ext.Func.Pkg(); pkg != nil && isSource(pkg.Path(), ext.Func.Name()) {
			return &taint{source: pkg.Path() + "." + ext.Func.Name(), pos: ext.Pos}
		}
	}
	if !isSim(n.Unit) {
		if pos, ok := unorderedMapRange(mp, dirs, n); ok {
			return &taint{source: "range over map", pos: pos}
		}
	}
	return nil
}

// unorderedMapRange returns the position of the first range statement
// over a map in n's body that carries no //hetpnoc:orderfree directive
// and is not the sorted-iteration prologue maprange recognizes.
func unorderedMapRange(mp *analysis.ModulePass, dirs *analysis.DirectiveCache, n *callgraph.Node) (token.Pos, bool) {
	pass := mp.PassFor(n.Unit)
	var pos token.Pos
	found := false
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if found {
			return false
		}
		rs, ok := nd.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if d := dirs.For(n.Unit, rs.Pos()); d != nil {
			if _, covered := d.Covering(rs, analysis.DirectiveOrderfree); covered {
				return true
			}
		}
		if maprange.IsSortedCollect(pass, n.Decl.Body, rs) {
			return true
		}
		pos, found = rs.Pos(), true
		return false
	})
	return pos, found
}

// chainOf renders the taint chain from n down to its intrinsic source,
// e.g. "stats.Summary -> stats.merge -> time.Now".
func chainOf(n *callgraph.Node, t *taint, taints map[*callgraph.Node]*taint) string {
	var parts []string
	for {
		parts = append(parts, n.Name())
		if t.next == nil {
			parts = append(parts, t.source)
			break
		}
		n = t.next
		t = taints[n]
	}
	return strings.Join(parts, " -> ")
}
