// Package callgraph builds a whole-program call graph over the
// module's type-checked packages, the substrate for the interprocedural
// hetpnoclint analyzers (hotpathreach, allocproof, dettaint). The loader
// type-checks every module package into one FileSet with shared object
// identity, so a *types.Func is the same pointer whether reached from
// its defining package or through an importer — nodes key on it
// directly.
//
// Resolution rules, in decreasing precision:
//
//   - Static calls (pkg.F(), f() for a declared f, method calls on
//     concrete receivers, method expressions T.M) resolve to exactly
//     one callee.
//   - Interface method calls resolve with class-hierarchy analysis
//     restricted to in-module implementing types: every named module
//     type whose method set (value or pointer) satisfies the receiver
//     interface contributes its concrete method as a callee. Out-of-
//     module implementations are invisible; callers that need soundness
//     against them must treat the site as open (see Node.Unknown).
//   - References to a declared function outside call position (method
//     values, functions passed as arguments, `go f` targets) become
//     KindRef edges: the function escapes into a value the caller hands
//     somewhere, so it may run wherever the caller runs.
//   - Calls through function-typed variables, fields and parameters are
//     soundly unknown: no callee can be named, so the site is recorded
//     on the caller's Unknown list instead of fabricating edges.
//
// Function literals are not separate nodes: a literal's body is
// attributed to the declaration that lexically contains it, which keeps
// "what can this function cause to run" a single per-node question.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"hetpnoc/internal/analysis"
)

// Kind classifies how an edge's callee was resolved.
type Kind uint8

const (
	// KindStatic is a direct call to a declared function or a method on
	// a concrete receiver.
	KindStatic Kind = iota
	// KindInterface is an interface method call resolved by CHA to an
	// in-module implementation.
	KindInterface
	// KindRef is a reference to a declared function outside call
	// position (method value, callback argument); the callee may run
	// at any time the caller chooses to invoke the value.
	KindRef
)

func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindInterface:
		return "interface"
	case KindRef:
		return "ref"
	}
	return "?"
}

// Edge is one resolved caller→callee relation.
type Edge struct {
	Caller, Callee *Node

	// Site is the resolving expression: the *ast.CallExpr for calls,
	// the referencing *ast.Ident / *ast.SelectorExpr for KindRef.
	// Directive lookups (//hetpnoc:coldcall) anchor on it.
	Site ast.Node

	Kind Kind
}

// Pos returns the edge's source position.
func (e *Edge) Pos() token.Pos { return e.Site.Pos() }

// ExternalCall is one call (or reference) whose target is declared
// outside the module — typically the standard library. dettaint matches
// these against its nondeterminism-source table.
type ExternalCall struct {
	Func *types.Func
	Pos  token.Pos
}

// Node is one module-declared function or method.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Unit *analysis.PackageUnit

	// Out and In are the resolved edges, in deterministic build order
	// (unit order, then file order, then source order).
	Out []*Edge
	In  []*Edge

	// External are call sites targeting out-of-module functions.
	External []ExternalCall

	// Unknown are call sites through function-typed values that resolve
	// to no declaration (closures stored in fields, parameters). The
	// callee set at these sites is open.
	Unknown []token.Pos
}

// Name renders the node for diagnostics: "Pkg.Func" or
// "Pkg.(Recv).Method" shortened to the package's base name.
func (n *Node) Name() string {
	f := n.Func
	name := f.Name()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if f.Pkg() != nil {
		name = f.Pkg().Name() + "." + name
	}
	return name
}

// Graph is the module call graph.
type Graph struct {
	Fset *token.FileSet

	// Nodes indexes every module-declared function by its object.
	Nodes map[*types.Func]*Node

	// Sorted holds the same nodes in deterministic build order; all
	// traversals that must be reproducible iterate it instead of the
	// map.
	Sorted []*Node
}

// NodeOf returns the node of the declared function obj, or nil when obj
// is not declared in the module.
func (g *Graph) NodeOf(obj *types.Func) *Node { return g.Nodes[obj] }

// FromPass returns the call graph of mp's packages, memoized in
// mp.Cache (when the driver provides one) so the module analyzers of
// one lint invocation share a single build.
func FromPass(mp *analysis.ModulePass) *Graph {
	const key = "callgraph"
	if g, ok := mp.Cache[key].(*Graph); ok {
		return g
	}
	g := Build(mp.Fset, mp.Pkgs)
	if mp.Cache != nil {
		mp.Cache[key] = g
	}
	return g
}

// Build constructs the call graph of units. Units must share one
// FileSet and one type-checking universe (the loader guarantees both).
func Build(fset *token.FileSet, units []*analysis.PackageUnit) *Graph {
	g := &Graph{Fset: fset, Nodes: make(map[*types.Func]*Node)}
	b := &builder{g: g}

	// Pass 1: a node per declared function, and the named-type universe
	// for interface resolution.
	for _, u := range units {
		for _, file := range u.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if _, dup := g.Nodes[obj]; dup {
					continue // xtest units never redeclare, but stay safe
				}
				n := &Node{Func: obj, Decl: fd, Unit: u}
				g.Nodes[obj] = n
				g.Sorted = append(g.Sorted, n)
			}
		}
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				b.types = append(b.types, named)
			}
		}
	}

	// Pass 2: edges.
	for _, n := range g.Sorted {
		b.edges(n)
	}
	for _, n := range g.Sorted {
		for _, e := range n.Out {
			e.Callee.In = append(e.Callee.In, e)
		}
	}
	return g
}

type builder struct {
	g     *Graph
	types []*types.Named

	// implCache memoizes CHA results per interface type.
	implCache map[*types.Interface][]*types.Func
}

// edges walks n's body (function literals included) and resolves every
// call and function reference. ast.Inspect visits a CallExpr before its
// Fun child, so marking the call's naming identifier as consumed there
// keeps the reference cases from double-counting it — while the
// receiver expression under a call's selector is still fully traversed
// (it may contain further calls, as in a().b()).
func (b *builder) edges(n *Node) {
	info := n.Unit.TypesInfo
	consumed := make(map[*ast.Ident]bool)

	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			switch fun := unparen(nd.Fun).(type) {
			case *ast.Ident:
				consumed[fun] = true
			case *ast.SelectorExpr:
				consumed[fun.Sel] = true
			}
			b.call(n, info, nd)
		case *ast.SelectorExpr:
			if obj, ok := info.Uses[nd.Sel].(*types.Func); ok && !consumed[nd.Sel] {
				consumed[nd.Sel] = true
				b.addRef(n, nd, obj)
			}
		case *ast.Ident:
			if consumed[nd] {
				return true
			}
			if obj, ok := info.Uses[nd].(*types.Func); ok {
				b.addRef(n, nd, obj)
			}
		}
		return true
	})
}

// call resolves one call expression.
func (b *builder) call(n *Node, info *types.Info, call *ast.CallExpr) {
	fun := unparen(call.Fun)

	// Conversions and builtin calls are not function calls.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}

	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			b.add(n, call, obj, KindStatic)
			return
		case *types.Builtin, *types.Nil:
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj, ok := sel.Obj().(*types.Func)
			if !ok {
				break // function-typed field: unknown callee
			}
			if sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
				b.interfaceCall(n, call, sel.Recv().Underlying().(*types.Interface), obj)
				return
			}
			// Concrete method call or method expression.
			b.add(n, call, obj, KindStatic)
			return
		}
		// Qualified call pkg.F or method expression on qualified type.
		if obj, ok := info.Uses[fun.Sel].(*types.Func); ok {
			b.add(n, call, obj, KindStatic)
			return
		}
	case *ast.FuncLit:
		return // body already attributed to n
	}
	n.Unknown = append(n.Unknown, call.Pos())
}

// interfaceCall resolves a call to iface method m with CHA over the
// module's named types.
func (b *builder) interfaceCall(n *Node, call *ast.CallExpr, iface *types.Interface, m *types.Func) {
	resolved := false
	for _, impl := range b.implementers(iface) {
		if impl.Name() == m.Name() && samePkgScope(impl, m) {
			if b.add(n, call, impl, KindInterface) {
				resolved = true
			}
		}
	}
	if !resolved {
		// No in-module implementation: the callee set is open (stdlib
		// or reflective implementations the module cannot see).
		n.Unknown = append(n.Unknown, call.Pos())
	}
}

// implementers returns the concrete methods of every module type whose
// value or pointer method set satisfies iface.
func (b *builder) implementers(iface *types.Interface) []*types.Func {
	if b.implCache == nil {
		b.implCache = make(map[*types.Interface][]*types.Func)
	}
	if impls, ok := b.implCache[iface]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range b.types {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name())
			if f, ok := obj.(*types.Func); ok {
				impls = append(impls, f)
			}
		}
	}
	b.implCache[iface] = impls
	return impls
}

// samePkgScope reports whether an unexported method impl can satisfy
// interface method m (same package), or either is exported.
func samePkgScope(impl, m *types.Func) bool {
	if ast.IsExported(m.Name()) {
		return true
	}
	return impl.Pkg() == m.Pkg()
}

// add links caller n to obj, returning whether obj is a module node.
// Out-of-module targets land on n.External.
func (b *builder) add(n *Node, site ast.Node, obj *types.Func, kind Kind) bool {
	if callee, ok := b.g.Nodes[obj]; ok {
		n.Out = append(n.Out, &Edge{Caller: n, Callee: callee, Site: site, Kind: kind})
		return true
	}
	n.External = append(n.External, ExternalCall{Func: obj, Pos: site.Pos()})
	return false
}

func (b *builder) addRef(n *Node, site ast.Node, obj *types.Func) {
	if callee, ok := b.g.Nodes[obj]; ok {
		n.Out = append(n.Out, &Edge{Caller: n, Callee: callee, Site: site, Kind: KindRef})
		return
	}
	n.External = append(n.External, ExternalCall{Func: obj, Pos: site.Pos()})
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
