package hotpathreach

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"hetpnoc/internal/analysis"
)

// Check applies the hot-path allocation rules to one function body,
// reporting through pass. It flags the constructs that would quietly
// reintroduce per-cycle garbage:
//
//   - append whose result is not reassigned to the slice it extends
//     (the amortized-reuse idiom `x = append(x[:0], ...)` is exempt);
//   - fmt.* formatting calls, except fmt.Errorf — error construction
//     only runs on cold invariant-violation paths;
//   - closure literals that capture variables (each evaluation
//     allocates; hoist the closure to a struct field as the ejection
//     callbacks do);
//   - string concatenation;
//   - conversions of non-pointer values to interface types (boxing),
//     checked at call arguments, assignments, var declarations,
//     explicit conversions and returns.
//
// run applies it to every hot function; allocproof re-runs it with an
// intercepted reporter to tell which compiler-proven allocations the
// heuristics already flag.
func Check(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Appends already in the amortized-reuse form `x = append(x, ...)`
	// (or `x = append(x[:0], ...)`): the backing array survives across
	// calls, so growth is a one-time warm-up cost, not steady-state
	// garbage.
	reused := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call := appendCall(pass, rhs)
			if call == nil || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(sliceBase(call.Args[0])) {
				reused[call] = true
			}
		}
		return true
	})

	// The signature whose results a `return` feeds: the innermost
	// enclosing FuncLit's, or the declaration's. ast.Inspect reports
	// post-order as f(nil), so a node stack tracks the nesting.
	sigOf := func(stack []ast.Node) *types.Signature {
		for i := len(stack) - 1; i >= 0; i-- {
			if fl, ok := stack[i].(*ast.FuncLit); ok {
				if sig, ok := pass.TypeOf(fl).(*types.Signature); ok {
					return sig
				}
			}
		}
		sig, _ := pass.TypeOf(fd.Name).(*types.Signature)
		return sig
	}

	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			if name, ok := captures(pass, fd, n); ok {
				pass.Reportf(n.Pos(),
					fmt.Sprintf("closure literal captures %s and allocates on every evaluation in a hot-path function", name),
					"hoist the closure into a struct field built at construction time")
			}
		case *ast.CallExpr:
			checkCall(pass, n, reused)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypeOf(n)) && !isConstant(pass, n) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates in a hot-path function",
					"precompute the string at construction time or log lazily with int args")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates in a hot-path function",
					"precompute the string at construction time or log lazily with int args")
			}
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					checkConvert(pass, rhs, pass.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					checkConvert(pass, v, pass.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			sig := sigOf(stack)
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, r := range n.Results {
					checkConvert(pass, r, sig.Results().At(i).Type())
				}
			}
		}
		return true
	})
}

// checkCall handles the call-shaped violations: raw appends, fmt
// formatting, interface boxing of arguments and explicit conversions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, reused map[*ast.CallExpr]bool) {
	// Explicit conversion T(v)?
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		checkConvert(pass, call.Args[0], tv.Type)
		return
	}

	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && !reused[call] {
				pass.Reportf(call.Pos(),
					"append result is not reassigned to the slice it extends; growth allocates a fresh backing array every call",
					"reuse a preallocated buffer: x = append(x[:0], ...)")
			}
			return
		}
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn := pass.PkgNameOf(id); pn != nil && pn.Imported().Path() == "fmt" {
				// fmt.Errorf is exempt in full (including its boxed
				// operands): error construction only runs on cold
				// invariant-violation paths, never in steady state.
				if sel.Sel.Name != "Errorf" {
					pass.Reportf(call.Pos(),
						fmt.Sprintf("fmt.%s formats (and boxes its operands) on a hot path", sel.Sel.Name),
						"log lazily with int args (event.Log.AppendInts) or move formatting off the hot path")
				}
				return
			}
		}
	}

	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var target types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			target = params.At(i).Type()
		case sig.Variadic() && !call.Ellipsis.IsValid():
			target = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case sig.Variadic():
			target = params.At(params.Len() - 1).Type()
		}
		checkConvert(pass, arg, target)
	}
}

// checkConvert reports when assigning expr to target boxes a non-pointer
// value into an interface.
func checkConvert(pass *analysis.Pass, expr ast.Expr, target types.Type) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	et := pass.TypeOf(expr)
	if et == nil {
		return
	}
	if b, ok := et.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if types.IsInterface(et) {
		return
	}
	switch et.Underlying().(type) {
	// Word-sized reference types fit the interface data word directly.
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	pass.Reportf(expr.Pos(),
		fmt.Sprintf("conversion of %s to interface %s allocates (boxing) on a hot path",
			types.TypeString(et, types.RelativeTo(pass.Pkg)),
			types.TypeString(target, types.RelativeTo(pass.Pkg))),
		"pass a pointer, or keep the concrete type on the hot path")
}

// captures reports whether fl references a variable declared in outer
// but outside fl — the condition under which evaluating the literal
// allocates a closure. Package-level references compile to direct
// loads and do not count.
func captures(pass *analysis.Pass, outer *ast.FuncDecl, fl *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= outer.Pos() && v.Pos() < outer.End() && (v.Pos() < fl.Pos() || v.Pos() >= fl.End()) {
			name = v.Name()
			return false
		}
		return true
	})
	return name, name != ""
}

// appendCall returns rhs as an append CallExpr, or nil.
func appendCall(pass *analysis.Pass, rhs ast.Expr) *ast.CallExpr {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	return call
}

// sliceBase strips slice expressions: x[:0] -> x.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		se, ok := e.(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = se.X
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstant(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}
