// Package hotpathreach guards the simulator's zero-allocation cycle
// loop. Functions marked //hetpnoc:hotpath in their doc comment
// (Fabric.Step, router arbitration, packet pool operations) are the
// steady-state inner loop, and every module function reachable from
// such a root is as hot as the root itself: an allocation hidden one
// call deep — Fabric.Step calling an unannotated helper that appends
// into a fresh slice — costs the same per-cycle garbage. This analyzer
// walks the call graph from every annotated root and applies the
// allocation rules of Check to the roots and to everything they reach.
//
// A diagnostic in a reached function carries the shortest root→callee
// call chain, so it reads like a stack trace ending at the allocation
// site.
//
// Deliberate slow-path exits (error formatting, one-shot warm-up work)
// are cut with a justified directive, at either granularity:
//
//	//hetpnoc:coldcall error path, runs at most once per simulation
//	return r.explainDeadlock(now)
//
// severs that one call site, while the same directive in a function's
// doc comment
//
//	// grow doubles the ring capacity.
//	//
//	//hetpnoc:coldcall amortized growth, not steady-state
//	func (q *Queue) grow()
//
// severs every edge into the function: it is a declared slow path no
// matter who calls it.
//
// The BFS result is shared: allocproof reuses the same reachable set to
// attach compiler-proven escape facts to hot functions, so "reachable
// from a hot root" means exactly one thing across the suite.
//
// Soundness caveats (shared with the call graph): calls through
// function-typed values resolve to no callee, so work dispatched via
// stored closures (the fabric's hoisted ejection callbacks) must keep
// its own //hetpnoc:hotpath annotation; interface calls resolve only to
// in-module implementations.
package hotpathreach

import (
	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/callgraph"
)

// Analyzer is the hotpathreach check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathreach",
	Doc: "flag allocation-causing constructs in //hetpnoc:hotpath functions and everything they reach\n\n" +
		"Hot-path functions must stay at 0 allocs/op in steady state, and\n" +
		"the cycle loop's callees are as hot as the loop itself; this\n" +
		"whole-program pass walks the call graph from every annotated root\n" +
		"and flags appends without amortized reuse, fmt formatting,\n" +
		"capturing closures, string concatenation and interface boxing in\n" +
		"each root and each reachable module function, the latter with the\n" +
		"full root→callee call chain.\n" +
		"Sever deliberate slow-path calls with //hetpnoc:coldcall <why>,\n" +
		"at the call site or in the callee's doc comment.",
	RunModule: run,
}

// Visit is one BFS tree entry: how a node was first reached. Via == nil
// marks a //hetpnoc:hotpath root.
type Visit struct {
	Node *callgraph.Node
	Via  *callgraph.Edge
}

// Reach is the hot-path reachability of one module: the shortest-path
// BFS tree from every //hetpnoc:hotpath root, with coldcall edges (call
// site or callee declaration) severed.
type Reach struct {
	// Graph is the call graph the BFS ran over. Consumers must iterate
	// this instance: Parent is keyed by its node pointers, and a nil
	// mp.Cache (as in the analysistest harness) makes callgraph.FromPass
	// rebuild a distinct graph per call.
	Graph *callgraph.Graph

	// Parent maps each reached node to its first visit; roots map to a
	// Visit with Via == nil.
	Parent map[*callgraph.Node]*Visit

	// Unjustified are coldcall directives without the required
	// justification, encountered while severing (run reports these).
	Unjustified []*callgraph.Edge
}

// Reached reports whether n is hot: a root or reachable from one.
func (r *Reach) Reached(n *callgraph.Node) bool {
	_, ok := r.Parent[n]
	return ok
}

// ChainOf renders the shortest root→n call chain recorded by the BFS,
// e.g. "fabric.Fabric.Step -> fabric.Fabric.pumpInject -> packet.Queue.Push".
func (r *Reach) ChainOf(n *callgraph.Node) string {
	var names []string
	for v := r.Parent[n]; v != nil; {
		names = append(names, v.Node.Name())
		if v.Via == nil {
			break
		}
		v = r.Parent[v.Via.Caller]
	}
	var sb []byte
	for i := len(names) - 1; i >= 0; i-- {
		sb = append(sb, names[i]...)
		if i > 0 {
			sb = append(sb, " -> "...)
		}
	}
	return string(sb)
}

// FromPass returns the module's hot-path reachability, memoized in
// mp.Cache so hotpathreach and allocproof share one BFS.
func FromPass(mp *analysis.ModulePass) *Reach {
	const key = "hotpathreach"
	if r, ok := mp.Cache[key].(*Reach); ok {
		return r
	}
	r := build(mp)
	if mp.Cache != nil {
		mp.Cache[key] = r
	}
	return r
}

// build runs the multi-source BFS from the annotated roots. FIFO order
// over the deterministic edge order makes Parent a shortest-path tree
// and the reported chains reproducible.
func build(mp *analysis.ModulePass) *Reach {
	g := callgraph.FromPass(mp)
	dirs := analysis.NewDirectiveCache(mp.Fset)

	r := &Reach{Graph: g, Parent: make(map[*callgraph.Node]*Visit)}
	var queue []*Visit
	for _, n := range g.Sorted {
		if analysis.HasHotpath(n.Decl) {
			v := &Visit{Node: n}
			r.Parent[n] = v
			queue = append(queue, v)
		}
	}

	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range v.Node.Out {
			cold, justified := coldCall(dirs, e)
			if cold && !justified {
				r.Unjustified = append(r.Unjustified, e)
			}
			if cold {
				continue
			}
			if _, seen := r.Parent[e.Callee]; seen {
				continue
			}
			nv := &Visit{Node: e.Callee, Via: e}
			r.Parent[e.Callee] = nv
			queue = append(queue, nv)
		}
	}
	return r
}

func run(mp *analysis.ModulePass) error {
	reach := FromPass(mp)
	g := reach.Graph

	for _, e := range reach.Unjustified {
		mp.Reportf(e.Pos(),
			"//hetpnoc:coldcall needs a justification for leaving the hot path",
			"//hetpnoc:coldcall <why this call never runs in steady state>")
	}

	// Check every hot function; below a root, each diagnostic gains the
	// call chain that makes the function hot.
	for _, n := range g.Sorted {
		v, reached := reach.Parent[n]
		if !reached {
			continue
		}
		pass := mp.PassFor(n.Unit)
		if v.Via != nil {
			chain := reach.ChainOf(n)
			pass.Report = func(d analysis.Diagnostic) {
				d.Message += " (hot path: " + chain + ")"
				mp.Report(d)
			}
		}
		Check(pass, n.Decl)
	}
	return nil
}

// coldCall reports whether edge e is severed by a coldcall directive —
// on the call site or on the callee's declaration — and whether that
// directive carries the required justification.
func coldCall(dirs *analysis.DirectiveCache, e *callgraph.Edge) (cold, justified bool) {
	if d := dirs.For(e.Caller.Unit, e.Site.Pos()); d != nil {
		if dir, ok := d.Covering(e.Site, analysis.DirectiveColdcall); ok {
			return true, dir.Arg != ""
		}
	}
	if dir, ok := analysis.FuncDirective(e.Callee.Decl, analysis.DirectiveColdcall); ok {
		return true, dir.Arg != ""
	}
	return false, false
}
