package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parse is a test helper compiling src with comments attached.
func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDirectives(t *testing.T) {
	f := parse(t, `package p

//hetpnoc:ctxroot process entry point
func Root() {}

// Plain documents a function without a directive.
func Plain() {}
`)
	if d, ok := FuncDirective(f.Decls[0].(*ast.FuncDecl), DirectiveCtxRoot); !ok || d.Arg != "process entry point" {
		t.Errorf("Root: ok=%v arg=%q, want the ctxroot directive", ok, d.Arg)
	}
	if _, ok := FuncDirective(f.Decls[1].(*ast.FuncDecl), DirectiveCtxRoot); ok {
		t.Error("Plain should not carry a directive")
	}
}

func TestFuncDirectivesStacked(t *testing.T) {
	// One declaration carrying several directives: each must be findable
	// by name, and of two with the same name the first wins.
	f := parse(t, `package p

//hetpnoc:other note
//hetpnoc:ctxroot synchronous wrapper
//hetpnoc:ctxroot duplicate
func F() {}
`)
	fn := f.Decls[0].(*ast.FuncDecl)
	if d, ok := FuncDirective(fn, "other"); !ok || d.Arg != "note" {
		t.Errorf("FuncDirective(other) = %+v, %v", d, ok)
	}
	if d, ok := FuncDirective(fn, DirectiveCtxRoot); !ok || d.Arg != "synchronous wrapper" {
		t.Errorf("FuncDirective(ctxroot) = %+v, %v; want the first", d, ok)
	}
}

func TestDirectiveMissingReason(t *testing.T) {
	// A directive without its required argument parses with Arg == "" —
	// ctxflow turns that into a "needs a justification" diagnostic.
	f := parse(t, `package p

//hetpnoc:ctxroot
func Root() {}
`)
	d, ok := FuncDirective(f.Decls[0].(*ast.FuncDecl), DirectiveCtxRoot)
	if !ok {
		t.Fatal("bare ctxroot directive should still be found")
	}
	if d.Arg != "" {
		t.Errorf("Arg = %q, want empty (missing reason)", d.Arg)
	}
}

func TestDirectiveCRLF(t *testing.T) {
	// In a CRLF source the parser keeps the \r in //-comment text; the
	// directive name and argument must come out clean anyway.
	src := "package p\r\n\r\n//hetpnoc:ctxroot process entry point\r\nfunc Root() {}\r\n\r\n//hetpnoc:ctxroot\r\nfunc Bare() {}\r\n"
	f := parse(t, src)
	d, ok := FuncDirective(f.Decls[0].(*ast.FuncDecl), DirectiveCtxRoot)
	if !ok {
		t.Fatal("ctxroot directive lost in CRLF source")
	}
	if d.Arg != "process entry point" {
		t.Errorf("Arg = %q, want %q", d.Arg, "process entry point")
	}
	// The argless form is the sharper edge: without trimming, the name
	// itself would be "ctxroot\r".
	if _, ok := FuncDirective(f.Decls[1].(*ast.FuncDecl), DirectiveCtxRoot); !ok {
		t.Error("argless ctxroot directive lost in CRLF source")
	}
}

func TestIsSimPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"hetpnoc/internal/sim":    true,
		"hetpnoc/internal/fabric": true,
		"internal/torus":          true,
		"simfix/internal/packet":  true,
		"hetpnoc/cmd/hetpnocsim":  false,
		"hetpnoc/internal/report": false,
		"hetpnoc/internal/simx":   false,
		"hetpnoc":                 false,
	} {
		if got := IsSimPackage(path); got != want {
			t.Errorf("IsSimPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
