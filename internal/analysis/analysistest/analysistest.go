// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest for the repo's
// dependency-free framework.
//
// Fixtures live under <testdata>/src/<importpath>/ and may import the
// standard library (type-checked from source) or sibling fixture
// packages. A fixture line that should trigger a diagnostic carries a
// trailing comment of the form
//
//	code() // want "regexp"
//
// where the quoted pattern must match the diagnostic message reported
// on that line. Multiple patterns ("a" "b") expect multiple
// diagnostics. Every diagnostic must be wanted and every want must be
// matched, otherwise the test fails.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hetpnoc/internal/analysis"
)

// Shared across Run calls: srcimporter re-type-checks the standard
// library per instance, so all fixture packages in a test binary share
// one instance (and therefore one FileSet).
var (
	stdMu   sync.Mutex
	stdFset = token.NewFileSet()
	stdImp  = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
)

// Run applies a to each fixture package and reports mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	stdMu.Lock()
	defer stdMu.Unlock()
	fx := &fixtures{root: filepath.Join(testdata, "src"), checked: make(map[string]*fixturePkg)}
	for _, path := range pkgPaths {
		p, err := fx.load(path)
		if err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			continue
		}
		runOne(t, a, p)
	}
}

// RunModuleCache loads every fixture package in pkgPaths into one
// shared type universe, applies module analyzer a once over all of them
// (packages pulled in through fixture imports included) with a
// driver-style shared cache, and matches diagnostics against the want
// comments of every loaded file. Analyzers that read configuration or
// precomputed facts from ModulePass.Cache (allocproof's gcobs report)
// get cache handed through verbatim.
func RunModuleCache(t *testing.T, testdata string, a *analysis.Analyzer, cache map[string]any, pkgPaths ...string) {
	t.Helper()
	stdMu.Lock()
	defer stdMu.Unlock()
	fx := &fixtures{root: filepath.Join(testdata, "src"), checked: make(map[string]*fixturePkg)}
	for _, path := range pkgPaths {
		if _, err := fx.load(path); err != nil {
			t.Errorf("loading fixture %s: %v", path, err)
			return
		}
	}

	// Deterministic unit order: the explicit paths first, then any
	// packages reached only through imports, sorted.
	inUnits := make(map[string]bool)
	var units []*analysis.PackageUnit
	var files []*ast.File
	add := func(path string) {
		if inUnits[path] {
			return
		}
		inUnits[path] = true
		p := fx.checked[path]
		units = append(units, &analysis.PackageUnit{Path: p.path, Files: p.files, Pkg: p.pkg, TypesInfo: p.info})
		files = append(files, p.files...)
	}
	for _, path := range pkgPaths {
		add(path)
	}
	var rest []string
	for path := range fx.checked {
		if !inUnits[path] {
			rest = append(rest, path)
		}
	}
	sort.Strings(rest)
	for _, path := range rest {
		add(path)
	}

	var diags []analysis.Diagnostic
	mp := &analysis.ModulePass{
		Analyzer: a,
		Fset:     stdFset,
		Pkgs:     units,
		Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
		Cache:    cache,
	}
	if err := a.RunModule(mp); err != nil {
		t.Errorf("%s: module analyzer failed: %v", a.Name, err)
		return
	}
	matchWants(t, diags, files)
}

type fixturePkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type fixtures struct {
	root    string
	checked map[string]*fixturePkg
	loading map[string]bool
}

func (fx *fixtures) load(path string) (*fixturePkg, error) {
	if p, ok := fx.checked[path]; ok {
		return p, nil
	}
	dir := filepath.Join(fx.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(stdFset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture sources in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: (*fixtureImporter)(fx)}
	tp, err := conf.Check(path, stdFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	p := &fixturePkg{path: path, files: files, pkg: tp, info: info}
	fx.checked[path] = p
	return p, nil
}

// fixtureImporter resolves fixture-internal imports from testdata/src
// and everything else from the standard library.
type fixtureImporter fixtures

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	return fi.ImportFrom(path, "", 0)
}

func (fi *fixtureImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	fx := (*fixtures)(fi)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if st, err := os.Stat(filepath.Join(fx.root, filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := fx.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return stdImp.ImportFrom(path, dir, 0)
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`// want (.*)$`)

func parseWants(t *testing.T, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := stdFset.Position(c.Pos())
				for _, pat := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted parses the payload of a want comment: one or more
// Go-quoted or backquoted strings.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			t.Errorf("%s: malformed want payload %q", pos, s)
			return pats
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Errorf("%s: unterminated want pattern %q", pos, s)
			return pats
		}
		raw := s[:end+2]
		pat, err := strconv.Unquote(raw)
		if err != nil {
			t.Errorf("%s: bad want pattern %s: %v", pos, raw, err)
			return pats
		}
		pats = append(pats, pat)
		s = strings.TrimSpace(s[end+2:])
	}
	return pats
}

func runOne(t *testing.T, a *analysis.Analyzer, p *fixturePkg) {
	t.Helper()
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      stdFset,
		Files:     p.files,
		Pkg:       p.pkg,
		TypesInfo: p.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Errorf("%s: analyzer failed on %s: %v", a.Name, p.path, err)
		return
	}
	matchWants(t, diags, p.files)
}

// matchWants checks diags against the want comments of files: every
// diagnostic must be wanted and every want matched.
func matchWants(t *testing.T, diags []analysis.Diagnostic, files []*ast.File) {
	t.Helper()
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })

	wants := parseWants(t, files)
	for _, d := range diags {
		pos := stdFset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}
