package lockorder_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/lockorder"
)

// TestMalformedDeclaration covers the grammar errors, which report at
// the directive comment itself — a position want comments cannot
// annotate (the directive owns its whole line).
func TestMalformedDeclaration(t *testing.T) {
	src := `package p

import "sync"

//hetpnoc:lockorder OnlyOne.mu
//hetpnoc:lockorder A.mu A.mu same lock twice
//hetpnoc:lockorder bare alsobare some reason

type A struct{ mu sync.Mutex }

func Use(a *A) {
	a.mu.Lock()
	a.mu.Unlock()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: stubImporter{}}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	var diags []analysis.Diagnostic
	mp := &analysis.ModulePass{
		Analyzer: lockorder.Analyzer,
		Fset:     fset,
		Pkgs: []*analysis.PackageUnit{
			{Path: "p", Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info},
		},
		Report: func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := lockorder.Analyzer.RunModule(mp); err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"needs <outer> <inner> <why>",
		"two distinct qualified lock names",
		"two distinct qualified lock names",
	}
	if len(diags) != len(wants) {
		for _, d := range diags {
			t.Logf("got: %s: %s", fset.Position(d.Pos), d.Message)
		}
		t.Fatalf("diagnostics = %d, want %d", len(diags), len(wants))
	}
	for i, w := range wants {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}
}

// stubImporter type-checks the one stdlib import the fixture needs by
// faking package sync: only the Mutex shape matters to the analyzer.
type stubImporter struct{}

func (stubImporter) Import(path string) (*types.Package, error) {
	if path != "sync" {
		return nil, nil
	}
	pkg := types.NewPackage("sync", "sync")
	mutex := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "Mutex", nil), types.NewStruct(nil, nil), nil)
	sig := types.NewSignatureType(types.NewVar(token.NoPos, pkg, "m", types.NewPointer(mutex)), nil, nil, nil, nil, false)
	for _, name := range []string{"Lock", "Unlock"} {
		mutex.AddMethod(types.NewFunc(token.NoPos, pkg, name, sig))
	}
	pkg.Scope().Insert(mutex.Obj())
	pkg.MarkComplete()
	return pkg, nil
}
