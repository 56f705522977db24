// Package snapcover proves checkpoint completeness: every hand-written
// Snapshot/Restore pair in the module must capture and re-apply every
// mutable field of its subject type. PR 6's Fabric.Checkpoint promises
// bit-identical replay, and that promise is only as strong as the ~13
// snapshot pairs staying complete as new mutable state lands — one
// forgotten field silently corrupts every forked replica. This analyzer
// makes the completeness mechanical.
//
// A subject is a named struct type with a capture method (Snapshot,
// Checkpoint, or State) and a matching restore (a Restore/SetState
// method). For each subject the analyzer classifies every field —
// transitively through embedded structs and same-package
// slice-of-struct state like the torus path list — as:
//
//   - build-time: written only inside New*/new* constructors (or never
//     written at all). Construction-fixed state needs no checkpoint.
//     Taking a field's address counts as a write anywhere: the pointer
//     outlives the constructor.
//   - exempt: carries //hetpnoc:nosnap <why> on its declaration —
//     derived caches rebuilt on restore, allocation free-lists, state
//     owned and checkpointed by another component. The justification is
//     required.
//   - mutable: everything else. A mutable field must be referenced by
//     the capture implementation and by the restore implementation
//     (directly or in a same-package helper they call), or be covered
//     wholesale: by a *receiver copy, or — for the fields of an embedded
//     struct — by copying that struct's value whole (the `state` every
//     checkpointed component embeds: `s = a.state`, `*dst = *src` in a
//     helper, `return tx.txState`). A field moved out of the embedded
//     state is reported like any other uncovered field.
//
// A whole-value copy shares the slices the state owns; whether each is
// then deep-copied is left to the dynamic checkpoint tests.
//
// Each diagnostic names the full missing-field path (e.g.
// `Fabric.cores.inNext`); -fix scaffolds a reminder stanza into the
// capture body so the missing field is impossible to overlook.
//
// Known limitation, by design: a field that is never reassigned but
// whose pointee is mutated through methods (rx.detectors) is build-time
// at this type's level — the pointee's own Snapshot/Restore pair is
// responsible for its state, and gets its own coverage check.
package snapcover

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"hetpnoc/internal/analysis"
	"hetpnoc/internal/analysis/callgraph"
)

// Analyzer is the snapcover check.
var Analyzer = &analysis.Analyzer{
	Name: "snapcover",
	Doc: "prove Snapshot/Restore pairs capture and restore every mutable field of their subject\n\n" +
		"Pairs each Snapshot/Checkpoint/State implementation with its\n" +
		"restore counterpart and its subject struct, classifies every\n" +
		"field (transitively through embedded and slice-of-struct state)\n" +
		"as build-time, exempt (//hetpnoc:nosnap <why>) or mutable, and\n" +
		"reports mutable fields missing from either side with their full\n" +
		"field path.",
	RunModule: run,
}

// captureNames and restoreNames are the method-name families that form
// a snapshot pair.
var captureNames = map[string]bool{"Snapshot": true, "Checkpoint": true, "State": true}
var restoreNames = map[string]bool{"Restore": true, "SetState": true}

// subject is one named struct type with snapshot methods.
type subject struct {
	typ      *types.Named
	captures []*callgraph.Node
	restores []*callgraph.Node
}

// fieldSite locates one struct field's declaration for directive
// lookups and diagnostics.
type fieldSite struct {
	field *ast.Field
	unit  *analysis.PackageUnit
}

type checker struct {
	mp     *analysis.ModulePass
	g      *callgraph.Graph
	dirs   *analysis.DirectiveCache
	fields map[token.Pos]fieldSite
	// written maps field objects to "written outside build-time code".
	written map[*types.Var]bool
	// subjects indexes every named type that has any capture or restore
	// candidate; used to stop nested descent at types with their own pair.
	subjects map[*types.Named]*subject
	// badNosnap dedupes unjustified-nosnap reports per field.
	badNosnap map[*types.Var]bool
}

func run(mp *analysis.ModulePass) error {
	c := &checker{
		mp:        mp,
		g:         callgraph.FromPass(mp),
		dirs:      analysis.NewDirectiveCache(mp.Fset),
		fields:    make(map[token.Pos]fieldSite),
		written:   make(map[*types.Var]bool),
		subjects:  make(map[*types.Named]*subject),
		badNosnap: make(map[*types.Var]bool),
	}
	c.indexFields()
	c.indexWrites()
	c.discover()

	// Deterministic order: subjects sorted by the position of their
	// first capture method.
	var ordered []*subject
	for _, s := range c.subjects {
		if len(s.captures) > 0 || len(s.restores) > 0 {
			ordered = append(ordered, s)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return subjectPos(ordered[i]) < subjectPos(ordered[j]) })

	for _, s := range ordered {
		c.check(s)
	}
	return nil
}

func subjectPos(s *subject) token.Pos {
	if len(s.captures) > 0 {
		return s.captures[0].Decl.Pos()
	}
	return s.restores[0].Decl.Pos()
}

// indexFields maps every struct field declaration position (names and
// embedded type expressions) to its AST for nosnap lookups.
func (c *checker) indexFields() {
	for _, u := range c.mp.Pkgs {
		for _, file := range u.Files {
			if c.testFile(file.Pos()) {
				continue
			}
			unit := u
			ast.Inspect(file, func(nd ast.Node) bool {
				st, ok := nd.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					site := fieldSite{field: f, unit: unit}
					for _, name := range f.Names {
						c.fields[name.Pos()] = site
					}
					if len(f.Names) == 0 {
						c.fields[f.Type.Pos()] = site
						// An embedded *T field's object sits on T, one
						// token past the star.
						if star, ok := f.Type.(*ast.StarExpr); ok {
							c.fields[star.X.Pos()] = site
						}
					}
				}
				return true
			})
		}
	}
}

// indexWrites records every field object assigned outside build-time
// code. Build-time means: directly inside a function or method whose
// name starts with New/new (not inside a closure — a closure built in a
// constructor runs later). Test files are ignored; a test poking a
// field does not make it run-time mutable.
func (c *checker) indexWrites() {
	for _, n := range c.g.Sorted {
		if c.testFile(n.Decl.Pos()) {
			continue
		}
		buildTime := strings.HasPrefix(n.Func.Name(), "New") || strings.HasPrefix(n.Func.Name(), "new")
		info := n.Unit.TypesInfo
		depth := 0 // FuncLit nesting
		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case nil:
				return true
			case *ast.FuncLit:
				// Inspect pre/post calls: count via a nested walk instead.
				depth++
				ast.Inspect(nd.Body, func(inner ast.Node) bool {
					c.writeTargets(info, inner, false)
					return true
				})
				return false // handled; avoid double visits
			default:
				c.writeTargets(info, nd, buildTime && depth == 0)
			}
			return true
		})
	}
}

// writeTargets records the field objects written by one statement.
// buildTime writes are skipped — they are construction, not mutation.
func (c *checker) writeTargets(info *types.Info, nd ast.Node, buildTime bool) {
	record := func(e ast.Expr) {
		if !buildTime {
			c.markWritten(info, e)
		}
	}
	switch nd := nd.(type) {
	case *ast.AssignStmt:
		if nd.Tok == token.DEFINE {
			return
		}
		for _, lhs := range nd.Lhs {
			record(lhs)
		}
	case *ast.IncDecStmt:
		record(nd.X)
	case *ast.UnaryExpr:
		// &x.f hands out a pointer that outlives the statement, even a
		// constructor's: whoever holds it may write the field (the
		// fabric's ID counters, which its sources advance).
		if nd.Op == token.AND {
			c.markWritten(info, nd.X)
		}
	case *ast.RangeStmt:
		if nd.Tok == token.ASSIGN {
			record(nd.Key)
			record(nd.Value)
		}
	case *ast.CallExpr:
		// copy(x.f, ...) mutates x.f's contents in place.
		if id, ok := nd.Fun.(*ast.Ident); ok && len(nd.Args) > 0 {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" {
				record(nd.Args[0])
			}
		}
	}
}

// markWritten walks a write target down to the field objects it
// mutates: every selector on the access path counts (`a.hot[g].count++`
// mutates both hot's contents and count).
func (c *checker) markWritten(info *types.Info, e ast.Expr) {
	for e != nil {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[t.Sel].(*types.Var); ok && v.IsField() {
				c.written[v] = true
			}
			e = t.X
		default:
			return
		}
	}
}

// discover indexes every snapshot method pair by subject type.
func (c *checker) discover() {
	for _, n := range c.g.Sorted {
		if c.testFile(n.Decl.Pos()) {
			continue
		}
		recv := n.Func.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		named := namedOf(recv.Type())
		if named == nil || !isStruct(named) {
			continue
		}
		switch name := n.Func.Name(); {
		case captureNames[name]:
			c.subjectFor(named).captures = append(c.subjectFor(named).captures, n)
		case restoreNames[name]:
			c.subjectFor(named).restores = append(c.subjectFor(named).restores, n)
		}
	}
}

func (c *checker) subjectFor(named *types.Named) *subject {
	s, ok := c.subjects[named]
	if !ok {
		s = &subject{typ: named}
		c.subjects[named] = s
	}
	return s
}

// check verifies one subject's pair coverage.
func (c *checker) check(s *subject) {
	// A State getter without SetState is just a getter; only the strong
	// names demand a counterpart.
	if len(s.restores) == 0 {
		for _, cap := range s.captures {
			name := cap.Func.Name()
			if name == "Snapshot" || name == "Checkpoint" {
				c.mp.Reportf(cap.Decl.Name.Pos(),
					fmt.Sprintf("%s.%s has no restore counterpart: the snapshot can never be applied (missing-restore)",
						s.typ.Obj().Name(), name),
					"add a Restore method that re-applies every captured field")
			}
		}
		return
	}
	if len(s.captures) == 0 {
		return
	}

	capCov := c.coverage(s.captures)
	resCov := c.coverage(s.restores)

	var missingCap, missingRes []string
	c.walkFields(s.typ, s.typ.Obj().Name(), capCov, resCov, nil, &missingCap, &missingRes)

	capPos := s.captures[0].Decl.Name.Pos()
	resPos := s.restores[0].Decl.Name.Pos()
	capName := s.typ.Obj().Name() + "." + s.captures[0].Func.Name()
	resName := s.restores[0].Func.Name()
	if sig := s.restores[0].Func.Type().(*types.Signature); sig.Recv() != nil {
		resName = s.typ.Obj().Name() + "." + resName
	}

	for _, path := range missingCap {
		c.mp.Report(analysis.Diagnostic{
			Pos: capPos,
			Message: fmt.Sprintf("%s does not capture mutable field %s: a restored run silently diverges",
				capName, path),
			Suggestion: fmt.Sprintf("capture %s (and restore it in %s), or exempt it with //hetpnoc:nosnap <why> on the field", path, resName),
			Fixes: []analysis.SuggestedFix{{
				Message: "scaffold a capture stanza for " + path,
				TextEdits: []analysis.TextEdit{{
					Pos: s.captures[0].Decl.Body.Lbrace + 1,
					End: s.captures[0].Decl.Body.Lbrace + 1,
					NewText: fmt.Sprintf("\n\t// TODO(snapcover): capture %s here and re-apply it in %s,\n"+
						"\t// or exempt the field with //hetpnoc:nosnap <why>.", path, resName),
				}},
			}},
		})
	}
	for _, path := range missingRes {
		c.mp.Reportf(resPos,
			fmt.Sprintf("%s does not restore mutable field %s: the captured value is never re-applied", resName, path),
			fmt.Sprintf("write %s back in %s, or exempt it with //hetpnoc:nosnap <why> on the field", path, resName))
	}
}

// cover is one side's field coverage: the fields referenced, whether a
// *receiver wholesale copy covers everything, and which slice/array
// fields had their elements transferred whole (copy() or an
// append(dst[:0], src...) spread) — element-wise completeness is
// implied for those, so nested descent would only produce noise.
type cover struct {
	set       map[*types.Var]bool
	whole     bool
	wholeElem map[*types.Var]bool
	// wholeTypes holds the struct types whose value is copied whole: an
	// operand of an assignment, a return or a variable declaration.
	wholeTypes map[*types.Named]bool
}

// coverage unions the field objects referenced by fns and the
// same-package helpers they call.
func (c *checker) coverage(fns []*callgraph.Node) *cover {
	cov := &cover{set: make(map[*types.Var]bool), wholeElem: make(map[*types.Var]bool), wholeTypes: make(map[*types.Named]bool)}
	visited := make(map[*callgraph.Node]bool)
	var visit func(n *callgraph.Node, root bool)
	visit = func(n *callgraph.Node, root bool) {
		if visited[n] {
			return
		}
		visited[n] = true
		info := n.Unit.TypesInfo

		var recvObj types.Object
		if root && n.Decl.Recv != nil && len(n.Decl.Recv.List) == 1 && len(n.Decl.Recv.List[0].Names) == 1 {
			recvObj = info.Defs[n.Decl.Recv.List[0].Names[0]]
		}

		ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.Ident:
				if v, ok := info.Uses[nd].(*types.Var); ok && v.IsField() {
					cov.set[v] = true
				}
			case *ast.StarExpr:
				if id, ok := nd.X.(*ast.Ident); ok && recvObj != nil && info.Uses[id] == recvObj {
					cov.whole = true
				}
			case *ast.CallExpr:
				c.wholesaleElems(info, nd, cov)
			case *ast.AssignStmt:
				wholeValues(info, cov, nd.Lhs...)
				wholeValues(info, cov, nd.Rhs...)
			case *ast.ReturnStmt:
				wholeValues(info, cov, nd.Results...)
			case *ast.ValueSpec:
				wholeValues(info, cov, nd.Values...)
			case *ast.CompositeLit:
				// Struct literal keys resolve through Uses as well, but
				// be defensive: match unresolved keys by name.
				c.litKeys(info, nd, cov.set)
			}
			return true
		})

		for _, e := range n.Out {
			if e.Kind == callgraph.KindRef {
				continue
			}
			if e.Callee.Unit.Pkg == n.Unit.Pkg {
				visit(e.Callee, false)
			}
		}
	}
	for _, fn := range fns {
		visit(fn, true)
	}
	return cov
}

// wholesaleElems records fields whose elements call transfers whole:
// copy(dst, src) and append(dst[:0], src...) move complete element
// values, so a struct element's every field rides along.
func (c *checker) wholesaleElems(info *types.Info, call *ast.CallExpr, cov *cover) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok {
		return
	}
	mark := func(e ast.Expr) {
		if v := rootField(info, e); v != nil {
			cov.wholeElem[v] = true
		}
	}
	switch {
	case b.Name() == "copy" && len(call.Args) == 2:
		mark(call.Args[0])
		mark(call.Args[1])
	case b.Name() == "append" && call.Ellipsis.IsValid() && len(call.Args) == 2:
		mark(call.Args[0])
		mark(call.Args[1])
	}
}

// wholeValues records the named struct types of the operands in es that
// are struct values, not pointers: copying one copies every field.
func wholeValues(info *types.Info, cov *cover, es ...ast.Expr) {
	for _, e := range es {
		tv, ok := info.Types[e]
		if !ok {
			continue
		}
		if n, ok := types.Unalias(tv.Type).(*types.Named); ok && isStruct(n) {
			cov.wholeTypes[n] = true
		}
	}
}

// rootField resolves an expression like a.hot, s.bufs[g] or x.f[:0] to
// the field object it denotes, or nil.
func rootField(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[t.Sel].(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// litKeys marks the struct fields named by a composite literal's keys.
func (c *checker) litKeys(info *types.Info, lit *ast.CompositeLit, covered map[*types.Var]bool) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	st, ok := deref(tv.Type).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if v, ok := info.Uses[key].(*types.Var); ok && v.IsField() {
			covered[v] = true
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == key.Name {
				covered[st.Field(i)] = true
				break
			}
		}
	}
}

// walkFields checks every field of named (embedded structs flattened,
// same-package element structs descended into) against the coverage
// sets, appending missing-field paths.
func (c *checker) walkFields(named *types.Named, path string, capCov, resCov *cover,
	seen []*types.Named, missingCap, missingRes *[]string) {
	for _, prev := range seen {
		if prev == named {
			return
		}
	}
	seen = append(seen, named)
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fpath := path + "." + f.Name()

		// Embedded same-package struct: its fields are the subject's
		// fields (a component's state), covered wholesale on a side
		// that copies the struct's value whole.
		if f.Embedded() {
			if en := namedOf(f.Type()); en != nil && en.Obj().Pkg() == named.Obj().Pkg() && isStruct(en) {
				c.walkFields(en, path, capCov.wholeFor(en), resCov.wholeFor(en), seen, missingCap, missingRes)
				continue
			}
		}

		if c.exempt(f) {
			continue
		}
		if !c.written[f] {
			continue // build-time: never mutated after construction
		}
		if !capCov.whole && !capCov.set[f] {
			*missingCap = append(*missingCap, fpath)
		}
		if !resCov.whole && !resCov.set[f] {
			*missingRes = append(*missingRes, fpath)
		}

		// Descend into same-package struct elements without their own
		// snapshot pair (the torus path list) — but only when the pair
		// handles them field-by-field; a wholesale value transfer
		// (copy(), an append spread, a *receiver copy, or zero element
		// accesses at all) implies element completeness.
		en := elemStruct(f.Type())
		if en == nil || en.Obj().Pkg() != named.Obj().Pkg() || c.hasOwnPair(en) {
			continue
		}
		est := en.Underlying().(*types.Struct)
		capElems := !capCov.whole && !capCov.wholeElem[f] && touchesAny(capCov.set, est)
		resElems := !resCov.whole && !resCov.wholeElem[f] && touchesAny(resCov.set, est)
		if capElems || resElems {
			ecap, eres := capCov, resCov
			if !capElems {
				ecap = &cover{set: capCov.set, whole: true, wholeElem: capCov.wholeElem, wholeTypes: capCov.wholeTypes}
			}
			if !resElems {
				eres = &cover{set: resCov.set, whole: true, wholeElem: resCov.wholeElem, wholeTypes: resCov.wholeTypes}
			}
			c.walkFields(en, fpath, ecap, eres, seen, missingCap, missingRes)
		}
	}
}

// wholeFor returns the coverage of an embedded struct of type en: all of
// its fields when this side copies an en value whole, cov otherwise.
func (cov *cover) wholeFor(en *types.Named) *cover {
	if !cov.wholeTypes[en] {
		return cov
	}
	return &cover{set: cov.set, whole: true, wholeElem: cov.wholeElem, wholeTypes: cov.wholeTypes}
}

// exempt reports whether f carries //hetpnoc:nosnap, reporting a
// missing justification once.
func (c *checker) exempt(f *types.Var) bool {
	site, ok := c.fields[f.Pos()]
	if !ok {
		return false
	}
	d := c.dirs.For(site.unit, f.Pos())
	if d == nil {
		return false
	}
	dir, ok := d.Covering(site.field, analysis.DirectiveNosnap)
	if !ok {
		return false
	}
	if dir.Arg == "" && !c.badNosnap[f] {
		c.badNosnap[f] = true
		c.mp.Reportf(f.Pos(),
			"//hetpnoc:nosnap needs a justification for excluding the field from checkpoints",
			"//hetpnoc:nosnap <why this field needs no capture: build-time, derived, or owned elsewhere>")
	}
	return true
}

// hasOwnPair reports whether named has its own capture+restore methods
// (its coverage is its own subject's check).
func (c *checker) hasOwnPair(named *types.Named) bool {
	s, ok := c.subjects[named]
	return ok && len(s.captures) > 0 && len(s.restores) > 0
}

// touchesAny reports whether set covers any field of st.
func touchesAny(set map[*types.Var]bool, st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if set[st.Field(i)] {
			return true
		}
	}
	return false
}

// elemStruct strips pointers, slices, arrays and map values down to a
// named struct type, or nil.
func elemStruct(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		case *types.Map:
			t = tt.Elem()
		case *types.Named:
			if isStruct(tt) {
				return tt
			}
			return nil
		default:
			return nil
		}
	}
}

// namedOf strips one pointer and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func isStruct(n *types.Named) bool {
	_, ok := n.Underlying().(*types.Struct)
	return ok
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// testFile reports whether pos falls in a _test.go file.
func (c *checker) testFile(pos token.Pos) bool {
	f := c.mp.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}
