package vflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// analyzeF type-checks src (import-free, one function F) and returns
// its FuncInfo plus the tooling to locate identifiers.
func analyzeF(t *testing.T, src string) (*FuncInfo, *token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	var body *ast.BlockStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "F" {
			body = fd.Body
		}
	}
	if body == nil {
		t.Fatal("no function F")
	}
	return Analyze(body, info), fset, f, info
}

// useAt finds the use identifier named name on the given 1-based source
// line.
func useAt(t *testing.T, fset *token.FileSet, f *ast.File, info *types.Info, name string, line int) *ast.Ident {
	t.Helper()
	var found *ast.Ident
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		if _, isUse := info.Uses[id]; !isUse {
			return true
		}
		if fset.Position(id.Pos()).Line == line {
			found = id
		}
		return true
	})
	if found == nil {
		t.Fatalf("no use of %q on line %d", name, line)
	}
	return found
}

// rhsStrings renders the defs' right-hand sides; opaque defs render as
// "?".
func rhsStrings(defs []*Def) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		if d.RHS == nil {
			out[i] = "?"
			continue
		}
		out[i] = types.ExprString(d.RHS)
	}
	return out
}

func TestStraightLineSingleDef(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F() int {
	x := 40
	y := x + 2
	return y
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 4))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "40" {
		t.Fatalf("defs of x = %v, want [40]", got)
	}
	defs = fi.DefsOf(useAt(t, fset, f, info, "y", 5))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "x + 2" {
		t.Fatalf("defs of y = %v, want [x + 2]", got)
	}
}

func TestRedefinitionKillsEarlierDef(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F() int {
	x := 1
	x = 2
	return x
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 5))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "2" {
		t.Fatalf("defs of x = %v, want [2]", got)
	}
}

func TestBranchJoinsBothDefs(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 7))
	if got := rhsStrings(defs); len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("defs of x = %v, want [1 2]", got)
	}
}

func TestLoopBackEdgeReachesTop(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x = x + i
	}
	return x
}`)
	// The read of x inside the loop body sees both the initial def and
	// its own previous iteration via the back edge.
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 5))
	if got := rhsStrings(defs); len(got) != 2 || got[0] != "0" || got[1] != "x + i" {
		t.Fatalf("defs of x in loop = %v, want [0, x + i]", got)
	}
	defs = fi.DefsOf(useAt(t, fset, f, info, "x", 7))
	if got := rhsStrings(defs); len(got) != 2 {
		t.Fatalf("defs of x at return = %v, want two defs", got)
	}
}

func TestCompoundAssignIsOpaqueButReads(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F() int {
	x := 1
	x += 2
	return x
}`)
	// x += 2 reads x (the initial def reaches it)...
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 4))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "1" {
		t.Fatalf("defs of x at += = %v, want [1]", got)
	}
	// ...and the def it produces is opaque.
	defs = fi.DefsOf(useAt(t, fset, f, info, "x", 5))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "?" {
		t.Fatalf("defs of x at return = %v, want [?]", got)
	}
}

func TestTupleAssignIsOpaque(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func g() (int, int) { return 1, 2 }
func F() int {
	a, b := g()
	return a + b
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "a", 5))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "?" {
		t.Fatalf("defs of a = %v, want [?]", got)
	}
}

func TestZeroValueDeclIsOpaque(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(c bool) float64 {
	var x float64
	if c {
		x = 2.5
	}
	return x
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 7))
	if got := rhsStrings(defs); len(got) != 2 || got[0] != "?" || got[1] != "2.5" {
		t.Fatalf("defs of x = %v, want [? 2.5]", got)
	}
}

func TestParamHasNoDefs(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(p int) int {
	return p
}`)
	if defs := fi.DefsOf(useAt(t, fset, f, info, "p", 3)); defs != nil {
		t.Fatalf("defs of param = %v, want none", rhsStrings(defs))
	}
}

func TestAddressTakenForcesOpaque(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func mut(p *int) { *p = 9 }
func F() int {
	x := 1
	mut(&x)
	return x
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 6))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "?" {
		t.Fatalf("defs of address-taken x = %v, want [?]", got)
	}
}

func TestClosureAssignmentForcesOpaque(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F() int {
	x := 1
	f := func() { x = 2 }
	f()
	return x
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 6))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "?" {
		t.Fatalf("defs of closure-assigned x = %v, want [?]", got)
	}
}

func TestClosureBodyUsesNotRecorded(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F() func() int {
	x := 1
	return func() int { return x }
}`)
	if defs := fi.DefsOf(useAt(t, fset, f, info, "x", 4)); defs != nil {
		t.Fatalf("defs of x inside closure = %v, want none", rhsStrings(defs))
	}
}

func TestRangeVariableIsOpaque(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(xs []int) int {
	s := 0
	for _, v := range xs {
		s = s + v
	}
	return s
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "v", 5))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "?" {
		t.Fatalf("defs of range var = %v, want [?]", got)
	}
}

func TestShadowedVariablesStayDistinct(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(c bool) int {
	x := 1
	if c {
		x := 2
		_ = x
	}
	return x
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 6))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "2" {
		t.Fatalf("defs of inner x = %v, want [2]", got)
	}
	defs = fi.DefsOf(useAt(t, fset, f, info, "x", 8))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "1" {
		t.Fatalf("defs of outer x = %v, want [1]", got)
	}
}

func TestEarlyReturnLimitsDefs(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(c bool) int {
	x := 1
	if c {
		x = 2
		return x
	}
	return x
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 6))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "2" {
		t.Fatalf("defs of x at early return = %v, want [2]", got)
	}
	defs = fi.DefsOf(useAt(t, fset, f, info, "x", 8))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "1" {
		t.Fatalf("defs of x at tail return = %v, want [1]", got)
	}
}

func TestSwitchDefsJoin(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(n int) int {
	x := 0
	switch n {
	case 1:
		x = 10
	case 2:
		x = 20
	}
	return x
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "x", 10))
	if got := rhsStrings(defs); len(got) != 3 {
		t.Fatalf("defs of x after switch = %v, want three", got)
	}
}

func TestModuleMemoizes(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F() int {
	x := 1
	return x
}`)
	_ = fi
	var body *ast.BlockStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "F" {
			body = fd.Body
		}
	}
	m := &Module{fns: make(map[*ast.BlockStmt]*FuncInfo)}
	a := m.FuncInfo(body, info)
	b := m.FuncInfo(body, info)
	if a != b {
		t.Fatal("Module.FuncInfo rebuilt instead of memoizing")
	}
	_ = fset
}

func TestPkgLastSegment(t *testing.T) {
	cases := map[string]string{
		"hetpnoc/internal/units":      "units",
		"hetpnoc/internal/units_test": "units",
		"units":                       "units",
		"us/units":                    "units",
		"hetpnoc/internal/simtools":   "simtools",
	}
	for in, want := range cases {
		if got := PkgLastSegment(in); got != want {
			t.Errorf("PkgLastSegment(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRecvDefRecordsArrowRHS(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(ch chan int) int {
	v := <-ch
	return v
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "v", 4))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "<-ch" {
		t.Fatalf("defs of v = %v, want [<-ch]", got)
	}
}

func TestSelectRecvClauseDefines(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(ch chan int) int {
	select {
	case v := <-ch:
		return v
	}
	return 0
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "v", 5))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "<-ch" {
		t.Fatalf("defs of select-bound v = %v, want [<-ch]", got)
	}
}

func TestGoClosureAssignForcesOpaque(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(in chan int) chan int {
	ch := in
	go func() { ch = nil }()
	return ch
}`)
	// The spawned literal rebinds ch at an unknown time; every def of
	// ch must go opaque so no consumer trusts a stale alias chain.
	defs := fi.DefsOf(useAt(t, fset, f, info, "ch", 5))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "?" {
		t.Fatalf("defs of go-closure-assigned ch = %v, want [?]", got)
	}
}

func TestChannelRebindKillsDef(t *testing.T) {
	fi, fset, f, info := analyzeF(t, `package p
func F(a, b chan int) chan int {
	ch := a
	ch = b
	return ch
}`)
	defs := fi.DefsOf(useAt(t, fset, f, info, "ch", 5))
	if got := rhsStrings(defs); len(got) != 1 || got[0] != "b" {
		t.Fatalf("defs of rebound ch = %v, want [b]", got)
	}
}
