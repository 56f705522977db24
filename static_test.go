package hetpnoc

import (
	"cmp"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// These tests check what no run can see: the exported API, dropped
// errors and bounds checks in the simulator's scan loops. They read every
// file they check in-process, so the test cache sees an edit to any.

var update = flag.Bool("update", false, "rewrite the testdata/api goldens from the exported API")

// The standard library is type-checked from source once per test binary,
// without cgo: the pure-Go fallbacks have the same API and need no C compiler.
var (
	srcFset     = token.NewFileSet()
	stdImporter = importer.ForCompiler(srcFset, "source", nil).(types.ImporterFrom)
)

func init() { build.Default.CgoEnabled = false }

// apiGoldens maps each package whose exported API downstream scripts drive to its golden.
var apiGoldens = map[string]string{
	"hetpnoc":                      "testdata/api/hetpnoc.golden",
	"hetpnoc/internal/experiments": "internal/experiments/testdata/api/experiments.golden",
}

// simPackages are the simulator's packages, whose scan loops are the cycle's innermost kernels.
var simPackages = strings.Fields("internal/sim internal/fabric internal/router internal/xbar internal/core internal/traffic internal/packet internal/event internal/torus")

// A modPkg is one type-checked package: its non-test files.
type modPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func typeCheck(path string, files []*ast.File, imp types.Importer) (*modPkg, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: imp}).Check(path, srcFset, files, info)
	return &modPkg{files, pkg, info}, err
}

// loadModule type-checks, once per test binary, the non-test files of
// every package `go list ./...` names. It walks the tree as the pattern
// does: testdata, names starting with "." or "_" and bench/ are skipped.
var loadModule = sync.OnceValues(func() ([]*modPkg, error) {
	var order []string
	parsed, pkgs := map[string][]*ast.File{}, map[string]*modPkg{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); dir != "." && (err == nil || d.Name() == "testdata" || strings.ContainsAny(d.Name()[:1], "._")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if _, noGo := err.(*build.NoGoError); err != nil && !noGo {
			return err
		}
		path := strings.TrimSuffix("hetpnoc/"+filepath.ToSlash(dir), "/.")
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(srcFset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			parsed[path] = append(parsed[path], f)
		}
		if len(bp.GoFiles) > 0 {
			order = append(order, path)
		}
		return nil
	})
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if parsed[path] == nil {
			return stdImporter.ImportFrom(path, "", 0)
		}
		var err error
		if pkgs[path] == nil {
			pkgs[path], err = typeCheck(path, parsed[path], imp)
		}
		return pkgs[path].pkg, err
	}
	loaded := make([]*modPkg, len(order))
	for i, path := range order {
		if _, err := imp(path); err != nil {
			return nil, err
		}
		loaded[i] = pkgs[path]
	}
	return loaded, err
})

func mustLoadModule(t *testing.T) []*modPkg {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestAPIGolden holds each apiGoldens package to its golden: one sorted
// "key\tdescriptor" line per exported declaration, struct field and
// method. An API change fails until `go test -run '^TestAPIGolden$'
// -update .` regenerates the golden, whose diff shows it for review.
func TestAPIGolden(t *testing.T) {
	for _, p := range mustLoadModule(t) {
		golden, ok := apiGoldens[p.pkg.Path()]
		if !ok {
			continue
		}
		var err error
		got := apiLines(p.pkg)
		if *update {
			err = os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644)
		}
		want, rerr := os.ReadFile(golden)
		if err := cmp.Or(err, rerr); err != nil {
			t.Fatal(err)
		}
		if diff := apiDiff(got, strings.Split(string(want), "\n")); len(diff) > 0 {
			t.Errorf("the exported API of %s differs from %s; if that is intended, run `go test -run '^TestAPIGolden$' -update .` and review the diff:\n\t%s",
				p.pkg.Path(), golden, strings.Join(diff, "\n\t"))
		}
	}
}

// apiLines renders pkg's exported API as sorted golden lines.
func apiLines(pkg *types.Package) []string {
	str := func(t types.Type) string { return types.TypeString(t, types.RelativeTo(pkg)) }
	var lines []string
	put := func(key, desc string) { lines = append(lines, key+"\t"+desc) }
	for _, name := range pkg.Scope().Names() {
		switch obj := pkg.Scope().Lookup(name); obj := obj.(type) {
		case *types.Const, *types.Var, *types.Func: // "const", "var" or "func"
			if obj.Exported() {
				put(name, strings.ToLower(strings.TrimPrefix(fmt.Sprintf("%T", obj), "*types."))+" "+str(obj.Type()))
			}
		case *types.TypeName:
			if !obj.Exported() {
				continue
			} else if obj.IsAlias() {
				put(name, "type = "+str(types.Unalias(obj.Type())))
				continue
			}
			named := obj.Type().(*types.Named)
			if st, ok := named.Underlying().(*types.Struct); ok {
				put(name, "type struct")
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() {
						put(name+"."+f.Name(), "field "+str(f.Type()))
					}
				}
			} else {
				put(name, "type "+str(named.Underlying()))
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					put(name+"."+m.Name(), "method "+str(m.Type()))
				}
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// apiDiff lists the keys of the sorted golden lines want that got removes, adds or changes.
func apiDiff(got, want []string) (diff []string) {
	g, w := map[string]string{}, map[string]string{}
	for _, line := range got {
		key, desc, _ := strings.Cut(line, "\t")
		g[key] = desc
	}
	for _, line := range want {
		if key, desc, ok := strings.Cut(line, "\t"); ok {
			if w[key] = desc; g[key] == "" {
				diff = append(diff, fmt.Sprintf("removed %s: %s", key, desc))
			}
		}
	}
	for _, line := range got {
		if key, desc, _ := strings.Cut(line, "\t"); w[key] == "" {
			diff = append(diff, fmt.Sprintf("added %s: %s", key, desc))
		} else if w[key] != desc {
			diff = append(diff, fmt.Sprintf("changed %s: %s -> %s", key, w[key], desc))
		}
	}
	return diff
}

// A finding is a message at a source position.
type finding struct {
	pos token.Position
	msg string
}

// TestNoDroppedErrors fails on every call statement in non-test code,
// cmd/ included, that drops an error: a simulator that
// swallows one keeps producing wrong numbers. `_ = f()`, defer and go pass.
func TestNoDroppedErrors(t *testing.T) {
	for _, p := range mustLoadModule(t) {
		for _, f := range droppedErrors(p.files, p.info) {
			t.Errorf("%s: %s; handle it, or drop it explicitly with `_ =`", f.pos, f.msg)
		}
	}
}

// droppedErrors returns the call statements of files that drop an error.
func droppedErrors(files []*ast.File, info *types.Info) []finding {
	var out []finding
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if stmt, ok := n.(*ast.ExprStmt); ok {
				if call, ok := stmt.X.(*ast.CallExpr); ok && returnsError(info.TypeOf(call)) && !cannotFail(info, call) {
					out = append(out, finding{srcFset.Position(call.Pos()), "error result of " + types.ExprString(call.Fun) + " is silently dropped"})
				}
			}
			return true
		})
	}
	return out
}

func returnsError(t types.Type) bool {
	tup, _ := t.(*types.Tuple)
	for i := 0; tup != nil && i < tup.Len(); i++ {
		if returnsError(tup.At(i).Type()) {
			return true
		}
	}
	return tup == nil && t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// cannotFail reports whether call is a write whose error is never
// actionable: fmt.Print*, fmt.Fprint* to os.Stdout, os.Stderr or an
// in-memory writer, and the methods of bytes.Buffer and strings.Builder.
func cannotFail(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	} else if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return inMemoryWriter(recv.Type())
	} else if strings.HasPrefix(fn.FullName(), "fmt.Print") {
		return true
	} else if !strings.HasPrefix(fn.FullName(), "fmt.Fprint") || len(call.Args) == 0 {
		return false
	}
	if dest, ok := call.Args[0].(*ast.SelectorExpr); ok {
		if v, ok := info.Uses[dest.Sel].(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == "os" && (v.Name() == "Stdout" || v.Name() == "Stderr") {
			return true
		}
	}
	return inMemoryWriter(info.TypeOf(call.Args[0]))
}

// inMemoryWriter reports whether t is a bytes.Buffer or a strings.Builder, or points to one.
func inMemoryWriter(t types.Type) bool {
	return slices.Contains([]string{"bytes.Buffer", "strings.Builder"}, strings.TrimPrefix(types.TypeString(t, nil), "*"))
}

// TestScanLoopBoundsChecks fails on every bounds check a check_bce build
// leaves in an occupancy scan loop of a simulator package (a for or range
// loop, in a non-test file, that calls bits.TrailingZeros*): per-flit
// overhead no run can see. Hoist the slice into a local, assert its
// length before the loop, or guard the index with one unsigned compare.
func TestScanLoopBoundsChecks(t *testing.T) {
	cmd := exec.Command("go", "build", "-gcflags=-d=ssa/check_bce", "./internal/...")
	cmd.Env = append(os.Environ(), "GOARCH=") // the host's 64-bit facts, also when the tests run as GOARCH=386
	out, err := cmd.CombinedOutput()
	facts := bceFacts(out)
	if err != nil || len(facts) == 0 {
		t.Fatalf("go build -gcflags=-d=ssa/check_bce ./internal/... reported no bounds check (%v):\n%s", err, out)
	}
	loops := 0
	for _, p := range mustLoadModule(t) {
		if !slices.Contains(simPackages, strings.TrimPrefix(p.pkg.Path(), "hetpnoc/")) {
			continue
		}
		for _, f := range p.files {
			n, found := scanLoopChecks(f, facts[srcFset.Position(f.Pos()).Filename])
			loops += n
			for _, f := range found {
				t.Errorf("%s: %s", f.pos, f.msg)
			}
		}
	}
	if loops == 0 {
		t.Fatal("no occupancy scan loop found in the simulator packages")
	}
	t.Logf("%d occupancy scan loops checked", loops)
}

var bceLine = regexp.MustCompile(`(?m)^(\S+\.go):(\d+):(\d+): (Found Is(?:Slice)?InBounds)\r?$`)

// bceFacts parses the bounds checks a check_bce build reports, by file.
func bceFacts(out []byte) map[string][]finding {
	facts := map[string][]finding{}
	for _, m := range bceLine.FindAllSubmatch(out, -1) {
		file := filepath.Clean(string(m[1]))
		line, _ := strconv.Atoi(string(m[2]))
		col, _ := strconv.Atoi(string(m[3]))
		facts[file] = append(facts[file], finding{token.Position{Filename: file, Line: line, Column: col}, string(m[4])})
	}
	return facts
}

// scanLoopChecks returns how many occupancy scan loops (outermost for or range loops
// that call bits.TrailingZeros*) file holds, and the facts that fall inside one.
func scanLoopChecks(file *ast.File, facts []finding) (loops int, found []finding) {
	bits := "bits"
	for _, imp := range file.Imports {
		if imp.Path.Value == `"math/bits"` && imp.Name != nil {
			bits = imp.Name.Name
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		_, isFor := n.(*ast.ForStmt)
		if _, isRange := n.(*ast.RangeStmt); !isFor && !isRange {
			return true
		}
		calls := false
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				sel, ok := call.Fun.(*ast.SelectorExpr)
				calls = calls || ok && types.ExprString(sel.X) == bits && strings.HasPrefix(sel.Sel.Name, "TrailingZeros")
			}
			return !calls
		})
		if !calls {
			return true
		}
		loops++
		start, end := srcFset.Position(n.Pos()), srcFset.Position(n.End())
		for _, fact := range facts {
			if !before(fact.pos, start) && before(fact.pos, end) {
				found = append(found, finding{fact.pos, "bounds check not eliminated inside an occupancy scan loop: " + fact.msg})
			}
		}
		return false
	})
	return loops, found
}

func before(a, b token.Position) bool {
	return a.Line < b.Line || a.Line == b.Line && a.Column < b.Column
}

// TestCheckCases feeds each check in-memory sources to flag or pass: an api
// case is diffed against apiGolden, an errors case is the body of errSrc's
// _, a scan case that of scanSrc's scan loop, with a fact after each /*bce*/.
func TestCheckCases(t *testing.T) {
	const apiSrc = `package p
func F(n int) int { return n }; type A = int
type B struct { Size int; hidden bool }; func (b *B) Grow(by int) { b.hidden = by > 0 }
`
	apiGolden := []string{"A\ttype = int", "B\ttype struct", "B.Grow\tmethod func(by int)", "B.Size\tfield int", "F\tfunc func(n int) int"}
	const errSrc = `package p
import ("bytes"; "errors"; "fmt"; "io"; "os"; "strings")
func fail() error { return errors.New("boom") }; func failPair() (int, error) { return 0, fail() }
type dev struct{}; func (dev) Flush() error { return nil }
func _(w io.Writer, d dev, buf *bytes.Buffer, sb *strings.Builder) { _, _ = os.Stdout, fmt.Sprint; %s }`
	const scanSrc = `package p
import "math/bits"
func Tick(words []uint64, sink []int) int {
	head := int(/*bce*/words[0])
	for _, word := range words { for ; word != 0; word &= word - 1 { %s } }
	return head + bits.Len(0)
}`
	dropped := func(callee string) string { return "error result of " + callee + " is silently dropped" }
	for _, c := range []struct {
		name, src string
		want      []string
	}{
		{"api/unchanged", apiSrc, nil},
		{"api/added", apiSrc + "func G() {}\n", []string{"added G: func func()"}},
		{"api/removed", strings.Replace(apiSrc, "func F(", "func f(", 1), []string{"removed F: func func(n int) int"}},
		{"api/changed", strings.Replace(apiSrc, "int { return n }", "int64 { return int64(n) }", 1), []string{"changed F: func func(n int) int -> func func(n int) int64"}},
		{"api/members", strings.NewReplacer("A = int", "A = uint", "Size int", "Size int32", ") Grow(", ") grow(").Replace(apiSrc),
			[]string{"removed B.Grow: method func(by int)", "changed A: type = int -> type = uint", "changed B.Size: field int -> field int32"}},
		{"errors/dropped", `fail(); failPair(); d.Flush(); func() { fail() }(); fmt.Fprintf(w, "x")`,
			[]string{dropped("fail"), dropped("failPair"), dropped("d.Flush"), dropped("fail"), dropped("fmt.Fprintf")}},
		{"errors/passing", `_ = fail(); defer fail(); go fail(); fmt.Println("x"); fmt.Fprintln(os.Stderr, "x"); fmt.Fprint(os.Stdout, "x")
			fmt.Fprintf(buf, "x"); buf.WriteString("x"); fmt.Fprintf(sb, "x"); sb.WriteByte('x')`, nil},
		{"scan/inside", "/*bce*/sink[bits.TrailingZeros64(word)]++", []string{"bounds check not eliminated inside an occupancy scan loop: Found IsInBounds"}},
		{"scan/outside", "sink[bits.TrailingZeros64(word)]++", nil},
		{"scan/no-scan", "/*bce*/sink[word&7]++", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			kind, _, _ := strings.Cut(c.name, "/")
			src := fmt.Sprintf(map[string]string{"api": "%s", "errors": errSrc, "scan": scanSrc}[kind], c.src)
			f, perr := parser.ParseFile(srcFset, c.name+".go", src, parser.SkipObjectResolution)
			p, err := typeCheck("p", []*ast.File{f}, stdImporter)
			if err := cmp.Or(perr, err); err != nil {
				t.Fatal(err)
			}
			var got []string
			var found []finding
			switch kind {
			case "api":
				got = apiDiff(apiLines(p.pkg), apiGolden)
			case "errors":
				found = droppedErrors(p.files, p.info)
			case "scan":
				var facts []finding
				for i, line := range strings.Split(src, "\n") {
					if col := strings.Index(line, "/*bce*/"); col >= 0 {
						facts = append(facts, finding{token.Position{Line: i + 1, Column: col + len("/*bce*/") + 1}, "Found IsInBounds"})
					}
				}
				_, found = scanLoopChecks(f, facts)
			}
			for _, f := range found {
				got = append(got, f.msg)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("got %q, want %q", got, c.want)
			}
		})
	}
}
