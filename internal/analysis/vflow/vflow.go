// Package vflow computes intraprocedural def-use chains — the
// value-flow layer of the hetpnoclint suite. For every use of a local
// variable it answers "which assignments can this value come from?",
// by running a reaching-definitions analysis (a may-dataflow: a
// definition reaches a use when it survives along at least one path)
// over the internal/analysis/cfg control-flow graph.
//
// The provenance consumer (unitsafe's laundering-cast detection) only
// ever acts on defs it can fully explain, so the layer is deliberately
// conservative:
// a definition whose right-hand side cannot be paired one-to-one with
// its variable — tuple assignments, compound ops (+=), zero-value
// declarations, range variables — is recorded as opaque (RHS nil), and
// variables the function cannot reason about locally at all (address
// taken, assigned inside a function literal that may run at any time)
// have every definition forced opaque. Function parameters carry no
// definitions; their uses resolve to nothing, which consumers treat as
// unknown provenance.
//
// Like the call graph, per-function results are memoized module-wide
// through ModulePass.Cache so the analyzers of one lint invocation
// share a single build.
package vflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/cfg"
)

// Def is one definition of a local variable.
type Def struct {
	// Var is the defined variable.
	Var *types.Var

	// Node is the defining statement (AssignStmt, DeclStmt, IncDecStmt)
	// or, for range variables, the ranged operand — for diagnostics.
	Node ast.Node

	// RHS is the defining expression when the definition pairs the
	// variable with exactly one right-hand side (x := e, x = e, paired
	// var declarations). It is nil for opaque definitions: tuple
	// assignments, compound assignment ops, zero-value declarations,
	// x++/x--, range variables, and every definition of a variable that
	// is address-taken or assigned inside a function literal.
	RHS ast.Expr
}

// FuncInfo is the def-use information of one function body.
type FuncInfo struct {
	// Graph is the body's control-flow graph.
	Graph *cfg.Graph

	// UseDefs maps each reading identifier of a local variable to the
	// definitions reaching it, in deterministic (source) order. Idents
	// inside nested function literals are not recorded — a literal runs
	// at an unknown time, so no outer definition reliably reaches it.
	UseDefs map[*ast.Ident][]*Def
}

// DefsOf returns the definitions reaching the use id, or nil when id is
// not a recorded use (not a local variable read, inside a function
// literal, or in unreachable code).
func (fi *FuncInfo) DefsOf(id *ast.Ident) []*Def { return fi.UseDefs[id] }

// Module lazily builds and caches FuncInfo per function body.
type Module struct {
	fns map[*ast.BlockStmt]*FuncInfo
}

// FromPass returns the module's value-flow cache, memoized in mp.Cache
// (when the driver provides one) so each function body is built once.
func FromPass(mp *analysis.ModulePass) *Module {
	const key = "vflow"
	if m, ok := mp.Cache[key].(*Module); ok {
		return m
	}
	m := &Module{fns: make(map[*ast.BlockStmt]*FuncInfo)}
	if mp.Cache != nil {
		mp.Cache[key] = m
	}
	return m
}

// FuncInfo returns the def-use information of body, building it on
// first request.
func (m *Module) FuncInfo(body *ast.BlockStmt, info *types.Info) *FuncInfo {
	if fi, ok := m.fns[body]; ok {
		return fi
	}
	fi := Analyze(body, info)
	m.fns[body] = fi
	return fi
}

// Analyze computes the def-use chains of one function body.
func Analyze(body *ast.BlockStmt, info *types.Info) *FuncInfo {
	b := &builder{
		info:   info,
		opaque: make(map[*types.Var]bool),
		extra:  make(map[ast.Node][]*Def),
	}
	b.scanOpaque(body)
	b.scanRangeDefs(body)

	g := cfg.New(body)
	nodeDefs := make(map[ast.Node][]int)
	varDefs := make(map[*types.Var][]int)
	var defs []*Def
	addDef := func(n ast.Node, d *Def) {
		idx := len(defs)
		defs = append(defs, d)
		nodeDefs[n] = append(nodeDefs[n], idx)
		varDefs[d.Var] = append(varDefs[d.Var], idx)
	}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			for _, d := range b.defsIn(n) {
				addDef(n, d)
			}
			for _, d := range b.extra[n] {
				addDef(n, d)
			}
		}
	}

	// Reaching definitions over the cfg may-engine: fact "d<i>" means
	// definition i survives on some path. A node's definitions kill
	// every other definition of the same variable, then gen themselves.
	transfer := func(n ast.Node, facts cfg.FactSet) {
		for _, idx := range nodeDefs[n] {
			for _, other := range varDefs[defs[idx].Var] {
				facts.Remove(factOf(other))
			}
		}
		for _, idx := range nodeDefs[n] {
			facts.Add(factOf(idx))
		}
	}
	in := g.ForwardMay(cfg.NewFactSet(), transfer)

	// Replay each reachable block, recording the reaching defs at every
	// variable read before applying the node's own definitions.
	fi := &FuncInfo{Graph: g, UseDefs: make(map[*ast.Ident][]*Def)}
	for _, blk := range g.Blocks {
		entry, reachable := in[blk]
		if !reachable {
			continue
		}
		facts := entry.Clone()
		for _, n := range blk.Nodes {
			for _, id := range b.usesIn(n) {
				v, ok := info.Uses[id].(*types.Var)
				if !ok {
					continue
				}
				var reaching []*Def
				for _, idx := range varDefs[v] {
					if facts.Has(factOf(idx)) {
						reaching = append(reaching, defs[idx])
					}
				}
				fi.UseDefs[id] = reaching
			}
			transfer(n, facts)
		}
	}
	return fi
}

func factOf(idx int) string { return fmt.Sprintf("d%d", idx) }

type builder struct {
	info   *types.Info
	opaque map[*types.Var]bool

	// extra holds definitions anchored on nodes the cfg builder records
	// in place of their statement: the ranged operand stands in for the
	// range statement's key/value definitions.
	extra map[ast.Node][]*Def
}

// scanOpaque marks variables the intraprocedural analysis must not
// explain: address-taken (any alias may rewrite them) and assigned
// inside function literals (the write happens at an unknown time).
func (b *builder) scanOpaque(body *ast.BlockStmt) {
	var depth int
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(n.Body, walk)
			depth--
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := unparen(n.X).(*ast.Ident); ok {
					b.markOpaque(id)
				}
			}
		case *ast.AssignStmt:
			if depth > 0 {
				for _, lhs := range n.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok {
						b.markOpaque(id)
					}
				}
			}
		case *ast.IncDecStmt:
			if depth > 0 {
				if id, ok := unparen(n.X).(*ast.Ident); ok {
					b.markOpaque(id)
				}
			}
		case *ast.RangeStmt:
			if depth > 0 {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						b.markOpaque(id)
					}
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

func (b *builder) markOpaque(id *ast.Ident) {
	if v := b.varOf(id); v != nil {
		b.opaque[v] = true
	}
}

// varOf resolves id to the local variable it names, defining or using.
func (b *builder) varOf(id *ast.Ident) *types.Var {
	if v, ok := b.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := b.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// scanRangeDefs anchors range key/value definitions on the ranged
// operand, the node the cfg builder records for the range head. Range
// variables are loop-carried — a fresh value every iteration — so they
// are always opaque.
func (b *builder) scanRangeDefs(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if v := b.varOf(id); v != nil {
				b.extra[rs.X] = append(b.extra[rs.X], &Def{Var: v, Node: rs.X})
			}
		}
		return true
	})
}

// defsIn returns the definitions a single cfg node performs, in source
// order. Definitions of opaque variables and unpaired right-hand sides
// come back with RHS nil.
func (b *builder) defsIn(n ast.Node) []*Def {
	var out []*Def
	add := func(id *ast.Ident, rhs ast.Expr) {
		v := b.varOf(id)
		if v == nil {
			return
		}
		if b.opaque[v] {
			rhs = nil
		}
		out = append(out, &Def{Var: v, Node: n, RHS: rhs})
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		paired := (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Lhs) == len(n.Rhs)
		for i, lhs := range n.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				continue // writes through selectors/indexes define no variable
			}
			if paired {
				add(id, n.Rhs[i])
			} else {
				add(id, nil)
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			break
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			paired := len(vs.Names) == len(vs.Values)
			for i, id := range vs.Names {
				if paired {
					add(id, vs.Values[i])
				} else {
					add(id, nil)
				}
			}
		}
	case *ast.IncDecStmt:
		if id, ok := unparen(n.X).(*ast.Ident); ok {
			add(id, nil)
		}
	}
	return out
}

// usesIn returns the reading identifiers of one cfg node in source
// order: every variable ident except pure-write left-hand sides
// (x = e, x := e) and idents inside nested function literals. The
// left-hand side of a compound assignment (x += e) reads x and is
// included.
func (b *builder) usesIn(n ast.Node) []*ast.Ident {
	written := make(map[*ast.Ident]bool)
	if as, ok := n.(*ast.AssignStmt); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) {
		for _, lhs := range as.Lhs {
			if id, ok := unparen(lhs).(*ast.Ident); ok {
				written[id] = true
			}
		}
	}
	var out []*ast.Ident
	ast.Inspect(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if !written[nd] {
				out = append(out, nd)
			}
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// PkgLastSegment returns the final path segment of a package path with
// any loader "_test" suffix stripped — the vocabulary unitsafe uses to
// recognize the units and sim packages by position rather than by
// hard-coded module path (fixture packages reuse the same suffixes).
func PkgLastSegment(path string) string {
	path = strings.TrimSuffix(path, "_test")
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}
