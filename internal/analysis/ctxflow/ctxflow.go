// Package ctxflow enforces context threading: cancellation must flow
// from the request edge into every long-running callee, because the
// serving layer's whole backpressure story (docs/SERVING.md) rests on
// Fabric.StepContext noticing a dead context within one check interval.
//
// Two rules:
//
//  1. context.Background() / context.TODO() may only be minted inside a
//     function annotated //hetpnoc:ctxroot <why> — process entry points
//     and deliberate synchronous wrappers (hetpnoc.Run, fabric.Run,
//     experiments.RunMatrix). Everywhere else the caller's context must
//     be used. Test files are exempt: a test *is* a root.
//
//  2. A function with a context.Context in scope (own parameter or a
//     captured one) must not call the context-less variant of a callee
//     that has a XContext sibling — f.Step(n) with ctx in scope is a
//     dropped cancellation edge; call f.StepContext(ctx, n).
//
// Both rules carry mechanical fixes, applied repo-wide by
// `hetpnoclint -fix`: rule 1 rewrites the mint to the in-scope context
// (when there is one), rule 2 rewrites the call to the Context variant
// with ctx prepended.
package ctxflow

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"hetpnoc/internal/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "enforce context threading and //hetpnoc:ctxroot discipline\n\n" +
		"context.Background/TODO only in annotated root functions; with a\n" +
		"context in scope, call the XContext variant of a callee that has\n" +
		"one.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		isTest := strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root, isRoot := analysis.FuncDirective(fd, analysis.DirectiveCtxRoot)
			if isRoot && root.Arg == "" {
				pass.Reportf(fd.Name.Pos(),
					"//hetpnoc:ctxroot needs a justification explaining why this function legitimately mints a fresh context",
					"//hetpnoc:ctxroot <why this is a root: process entry point, synchronous wrapper, ...>")
			}
			c := &checker{pass: pass, isTest: isTest, isRoot: isRoot, declName: fd.Name.Name}
			c.funcs = append(c.funcs, fd.Type)
			c.walk(fd.Body)
		}
	}
	return nil
}

type checker struct {
	pass     *analysis.Pass
	isTest   bool
	isRoot   bool
	declName string          // name of the enclosing FuncDecl
	funcs    []*ast.FuncType // enclosing function signatures, innermost last
}

func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.funcs = append(c.funcs, n.Type)
			c.walk(n.Body)
			c.funcs = c.funcs[:len(c.funcs)-1]
			return false
		case *ast.CallExpr:
			c.checkCall(n)
		}
		return true
	})
}

// ctxName returns the name of the nearest context.Context parameter in
// the enclosing function stack, or "" when no context is in scope.
func (c *checker) ctxName() string {
	for i := len(c.funcs) - 1; i >= 0; i-- {
		for _, field := range c.funcs[i].Params.List {
			t := c.pass.TypeOf(field.Type)
			if t == nil || !isContext(t) {
				continue
			}
			for _, name := range field.Names {
				if name.Name != "_" {
					return name.Name
				}
			}
		}
	}
	return ""
}

func isContext(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func (c *checker) checkCall(call *ast.CallExpr) {
	fn := c.calleeFunc(call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
		c.checkMint(call, fn)
		return
	}
	c.checkVariant(call, fn)
}

// calleeFunc resolves the called function or method, or nil for
// builtins, conversions and indirect calls.
func (c *checker) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// checkMint flags context.Background()/TODO() outside ctxroot functions
// (rule 1).
func (c *checker) checkMint(call *ast.CallExpr, fn *types.Func) {
	if c.isTest || c.isRoot {
		return
	}
	name := "context." + fn.Name() + "()"
	var fixes []analysis.SuggestedFix
	if ctx := c.ctxName(); ctx != "" {
		fixes = append(fixes, analysis.SuggestedFix{
			Message: fmt.Sprintf("use the in-scope context %s instead of %s", ctx, name),
			TextEdits: []analysis.TextEdit{
				{Pos: call.Pos(), End: call.End(), NewText: ctx},
			},
		})
	}
	c.pass.Report(analysis.Diagnostic{
		Pos:     call.Pos(),
		Message: fmt.Sprintf("%s severs cancellation from the caller; thread the caller's context instead", name),
		Suggestion: "pass the context from the caller, or annotate the function " +
			"//hetpnoc:ctxroot <why> if it is a legitimate root (process entry point, synchronous wrapper)",
		Fixes: fixes,
	})
}

// checkVariant flags context-less calls that have a XContext sibling
// while a context is in scope (rule 2).
func (c *checker) checkVariant(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || hasContextParam(sig) {
		return
	}
	// The wrapper pattern is the one place the raw variant is the point:
	// StepContext implements itself by calling Step in ctx-polled
	// chunks. Only the definitional site is exempt, not other callers.
	if c.declName == fn.Name()+"Context" {
		return
	}
	ctx := c.ctxName()
	if ctx == "" {
		return
	}
	variant := contextVariant(fn)
	if variant == nil {
		return
	}
	// The rewrite: rename the callee and prepend ctx.
	var nameIdent *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		nameIdent = fun
	case *ast.SelectorExpr:
		nameIdent = fun.Sel
	}
	insert := ctx
	if len(call.Args) > 0 {
		insert = ctx + ", "
	}
	c.pass.Report(analysis.Diagnostic{
		Pos: call.Pos(),
		Message: fmt.Sprintf("call to %s drops the in-scope context %s; call %s to keep cancellation threaded",
			fn.Name(), ctx, variant.Name()),
		Suggestion: fmt.Sprintf("replace with %s(%s, ...)", variant.Name(), ctx),
		Fixes: []analysis.SuggestedFix{{
			Message: fmt.Sprintf("call %s(%s, ...)", variant.Name(), insert),
			TextEdits: []analysis.TextEdit{
				{Pos: nameIdent.Pos(), End: nameIdent.End(), NewText: variant.Name()},
				{Pos: call.Lparen + 1, End: call.Lparen + 1, NewText: insert},
			},
		}},
	})
}

func hasContextParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// contextVariant returns the function or method named fn.Name()+
// "Context" on the same receiver or in the same package scope, when its
// first parameter is a context.Context.
func contextVariant(fn *types.Func) *types.Func {
	name := fn.Name() + "Context"
	sig := fn.Type().(*types.Signature)
	var candidate *types.Func
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				candidate = m
				break
			}
		}
	} else if fn.Pkg() != nil {
		candidate, _ = fn.Pkg().Scope().Lookup(name).(*types.Func)
	}
	if candidate == nil {
		return nil
	}
	csig, ok := candidate.Type().(*types.Signature)
	if !ok || csig.Params().Len() == 0 || !isContext(csig.Params().At(0).Type()) {
		return nil
	}
	return candidate
}
