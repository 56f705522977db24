package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directiveSrc = `package p

//hetpnoc:hotpath
func Hot() {}

func Cold() {}

func Body(m map[int]int) {
	//hetpnoc:orderfree sums commute
	for range m {
	}
	for range m { //hetpnoc:orderfree trailing form
	}
	for range m {
	}
}
`

func TestDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if !HasHotpath(f.Decls[0].(*ast.FuncDecl)) {
		t.Error("Hot should carry the hotpath directive")
	}
	if HasHotpath(f.Decls[1].(*ast.FuncDecl)) {
		t.Error("Cold should not carry the hotpath directive")
	}

	dirs := ParseDirectives(fset, f)
	body := f.Decls[2].(*ast.FuncDecl).Body
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			ranges = append(ranges, rs)
		}
		return true
	})
	if len(ranges) != 3 {
		t.Fatalf("got %d range statements, want 3", len(ranges))
	}
	if d, ok := dirs.Covering(ranges[0], DirectiveOrderfree); !ok || d.Arg != "sums commute" {
		t.Errorf("leading directive: ok=%v arg=%q", ok, d.Arg)
	}
	if d, ok := dirs.Covering(ranges[1], DirectiveOrderfree); !ok || d.Arg != "trailing form" {
		t.Errorf("trailing directive: ok=%v arg=%q", ok, d.Arg)
	}
	if _, ok := dirs.Covering(ranges[2], DirectiveOrderfree); ok {
		t.Error("bare range should not be covered by a directive")
	}
}

// parse is a test helper compiling src with comments attached.
func parse(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestFuncDirectivesStacked(t *testing.T) {
	// One declaration carrying several directives: each must be findable
	// by name, and of two with the same name the first wins.
	_, f := parse(t, `package p

//hetpnoc:hotpath
//hetpnoc:detsafe samples inputs only
//hetpnoc:detsafe duplicate
func F() {}
`)
	fn := f.Decls[0].(*ast.FuncDecl)
	if !HasHotpath(fn) {
		t.Error("stacked decl should still report hotpath")
	}
	if d, ok := FuncDirective(fn, DirectiveDetsafe); !ok || d.Arg != "samples inputs only" {
		t.Errorf("FuncDirective(detsafe) = %+v, %v; want the first", d, ok)
	}
	if _, ok := FuncDirective(fn, DirectiveCtxRoot); ok {
		t.Error("ctxroot should not be found on F")
	}
}

func TestDirectiveMissingReason(t *testing.T) {
	// A directive without its required argument parses with Arg == "" —
	// the analyzers turn that into a "needs a justification" diagnostic.
	fset, f := parse(t, `package p

func Body(m map[int]int) {
	//hetpnoc:orderfree
	for range m {
	}
}
`)
	dirs := ParseDirectives(fset, f)
	var rs *ast.RangeStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			rs = r
		}
		return true
	})
	d, ok := dirs.Covering(rs, DirectiveOrderfree)
	if !ok {
		t.Fatal("bare orderfree directive should still cover the range")
	}
	if d.Arg != "" {
		t.Errorf("Arg = %q, want empty (missing reason)", d.Arg)
	}
}

func TestDirectiveTrailingSameLine(t *testing.T) {
	// A trailing same-line comment covers the statement it trails, and a
	// second directive on the same line is not lost.
	fset, f := parse(t, `package p

func g() {
	setup() //hetpnoc:coldcall one-shot
	step()
}
`)
	dirs := ParseDirectives(fset, f)
	body := f.Decls[0].(*ast.FuncDecl).Body
	d, ok := dirs.Covering(body.List[0], DirectiveColdcall)
	if !ok || d.Arg != "one-shot" {
		t.Errorf("coldcall on trailing comment: ok=%v arg=%q, want one-shot", ok, d.Arg)
	}
	// The directive trails the call to setup; it must not leak down onto
	// the call to step via the line-above rule.
	if _, ok := dirs.Covering(body.List[1], DirectiveColdcall); ok {
		t.Error("trailing directive on the first statement leaked onto the next one")
	}
}

func TestDirectiveSameLineMultiple(t *testing.T) {
	// Two own-line directives stacked above one statement.
	fset, f := parse(t, `package p

func Body(m map[int]int) {
	//hetpnoc:orderfree fills a set
	//hetpnoc:orderfree duplicate
	for range m {
	}
}
`)
	dirs := ParseDirectives(fset, f)
	var rs *ast.RangeStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			rs = r
		}
		return true
	})
	// Only the directive directly above (line-1) covers; the one two
	// lines up does not.
	if d, ok := dirs.Covering(rs, DirectiveOrderfree); !ok || d.Arg != "duplicate" {
		t.Errorf("Covering = %+v, %v; want the adjacent directive only", d, ok)
	}
}

func TestDirectiveCRLF(t *testing.T) {
	// In a CRLF source the parser keeps the \r in //-comment text; the
	// directive name and argument must come out clean anyway.
	src := "package p\r\n\r\n//hetpnoc:ctxroot process entry point\r\nfunc Root() {}\r\n\r\n//hetpnoc:hotpath\r\nfunc Hot() {}\r\n"
	_, f := parse(t, src)
	root := f.Decls[0].(*ast.FuncDecl)
	d, ok := FuncDirective(root, DirectiveCtxRoot)
	if !ok {
		t.Fatal("ctxroot directive lost in CRLF source")
	}
	if d.Arg != "process entry point" {
		t.Errorf("Arg = %q, want %q", d.Arg, "process entry point")
	}
	// The argless form is the sharper edge: without trimming, the name
	// itself would be "hotpath\r".
	if !HasHotpath(f.Decls[1].(*ast.FuncDecl)) {
		t.Error("argless hotpath directive lost in CRLF source")
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
