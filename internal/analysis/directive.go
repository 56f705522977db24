package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The simulator's lint directives. A directive is a //hetpnoc:<name>
// comment; most additionally require an argument after the name — a
// justification or a mutex name — so every suppression records why it is
// safe (or what it is tied to).
const (
	// DirectiveOrderfree marks a range-over-map statement whose body is
	// insensitive to iteration order.
	DirectiveOrderfree = "orderfree"

	// DirectiveHotpath marks a function that must not allocate in steady
	// state; hotpathreach checks its body and everything it reaches.
	DirectiveHotpath = "hotpath"

	// DirectiveImmutable marks a package-level var that is a write-once
	// constant table (Go has no const for composite values).
	DirectiveImmutable = "immutable"

	// DirectiveGuardedBy marks a struct field as protected by a mutex:
	// //hetpnoc:guardedby mu names a sibling field, Server.mu names a
	// field of another struct. lockguard checks every access.
	DirectiveGuardedBy = "guardedby"

	// DirectiveCtxRoot marks a function that legitimately mints a fresh
	// context (process entry points, compatibility wrappers); ctxflow
	// flags context.Background/TODO everywhere else.
	DirectiveCtxRoot = "ctxroot"

	// DirectiveLocked marks a function whose contract is "caller holds
	// <mu>"; lockguard seeds the named locks as held at entry.
	DirectiveLocked = "locked"

	// DirectiveColdcall marks a call site inside hot-path-reachable
	// code as a deliberate slow-path exit (error formatting, one-shot
	// setup); hotpathreach does not traverse the edge and does not
	// check the callee through it. Requires a justification.
	DirectiveColdcall = "coldcall"

	// DirectiveDetsafe marks a function whose nondeterminism never
	// reaches simulator state (e.g. a property test that deliberately
	// samples random inputs and prints any counterexample); dettaint
	// treats it as clean. Requires a justification.
	DirectiveDetsafe = "detsafe"

	// DirectiveNosnap marks a struct field as deliberately excluded from
	// its type's Snapshot/Restore pair: immutable-after-build
	// configuration, derived caches rebuilt on restore, or state owned
	// (and checkpointed) by another component. snapcover skips the field
	// on both the capture and restore side. Requires a justification.
	DirectiveNosnap = "nosnap"

	// DirectiveUnitcast marks a deliberate cross-domain unit conversion
	// or unit-mixing expression that unitsafe would otherwise flag — a
	// value leaving the typed-quantity system on purpose (a calibration
	// table stored in different units, a dimensionless ratio built by
	// hand). Requires a justification.
	DirectiveUnitcast = "unitcast"

	// DirectiveLockorder declares the acquisition order of two mutexes:
	// //hetpnoc:lockorder <outer> <inner> <why> states that <outer> may
	// be held while <inner> is acquired, never the reverse. lockorder
	// feeds declared edges into its deadlock graph and requires a
	// declaration for every lock pair that shares a call tree.
	DirectiveLockorder = "lockorder"
)

const directivePrefix = "//hetpnoc:"

// Directive is one parsed //hetpnoc: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "orderfree", "hotpath", "guardedby"
	// Arg is the text after the name, trimmed: a justification
	// (orderfree, immutable, ctxroot) or a mutex name (guardedby,
	// locked).
	Arg string

	// Trailing reports that the comment follows code on its own line
	// (`x int //hetpnoc:guardedby mu`). A trailing directive covers only
	// that line — it never leaks onto the declaration below it the way
	// an own-line comment covers the line underneath.
	Trailing bool
}

// parseDirective parses one comment's text as a directive. It tolerates
// CRLF sources: the parser keeps the carriage return in //-comment text,
// which would otherwise leak into the name or argument.
func parseDirective(pos token.Pos, text string) (Directive, bool) {
	rest, ok := strings.CutPrefix(text, directivePrefix)
	if !ok {
		return Directive{}, false
	}
	rest = strings.TrimRight(rest, "\r")
	name, arg, _ := strings.Cut(rest, " ")
	return Directive{Pos: pos, Name: name, Arg: strings.TrimSpace(arg)}, true
}

// Directives indexes a file's //hetpnoc: comments by line so analyzers
// can ask "is statement S covered?" in O(1). A line can carry several
// directives (one per comment).
type Directives struct {
	fset   *token.FileSet
	byLine map[int][]Directive
}

// ParseDirectives collects every //hetpnoc: comment of file.
func ParseDirectives(fset *token.FileSet, file *ast.File) *Directives {
	// First pass: the leftmost column of real code per line, so a
	// directive can tell whether it trails a declaration or owns its
	// line.
	codeCol := make(map[int]int)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return true
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		p := fset.Position(n.Pos())
		if c, ok := codeCol[p.Line]; !ok || p.Column < c {
			codeCol[p.Line] = p.Column
		}
		return true
	})

	d := &Directives{fset: fset, byLine: make(map[int][]Directive)}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			dir, ok := parseDirective(c.Pos(), c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			if col, ok := codeCol[pos.Line]; ok && col < pos.Column {
				dir.Trailing = true
			}
			d.byLine[pos.Line] = append(d.byLine[pos.Line], dir)
		}
	}
	return d
}

// Covering returns the directive named name that covers node n: either a
// comment on n's first line or an own-line comment on the line directly
// above it (a directive trailing the *previous* declaration does not
// leak down). The bool reports whether one was found.
func (d *Directives) Covering(n ast.Node, name string) (Directive, bool) {
	if all := d.CoveringAll(n, name); len(all) > 0 {
		return all[0], true
	}
	return Directive{}, false
}

// CoveringAll returns every directive named name covering node n, same
// placement rules as Covering. Fields and functions may stack several
// directives of one kind (e.g. two //hetpnoc:locked lines for a function
// whose caller holds two mutexes).
func (d *Directives) CoveringAll(n ast.Node, name string) []Directive {
	line := d.fset.Position(n.Pos()).Line
	var out []Directive
	for _, dir := range d.byLine[line] {
		if dir.Name == name {
			out = append(out, dir)
		}
	}
	for _, dir := range d.byLine[line-1] {
		if dir.Name == name && !dir.Trailing {
			out = append(out, dir)
		}
	}
	return out
}

// CoveringLine is Covering keyed by source line instead of node: a
// directive on the line itself, or an own-line directive on the line
// directly above. allocproof anchors compiler facts, which arrive as
// file/line/column rather than AST nodes, through it.
func (d *Directives) CoveringLine(line int, name string) (Directive, bool) {
	for _, dir := range d.byLine[line] {
		if dir.Name == name {
			return dir, true
		}
	}
	for _, dir := range d.byLine[line-1] {
		if dir.Name == name && !dir.Trailing {
			return dir, true
		}
	}
	return Directive{}, false
}

// DirectiveCache lazily parses per-file directive indexes for the
// module-level analyzers, which look directives up by arbitrary
// positions across many packages and must not re-parse a file's
// comments once per query.
type DirectiveCache struct {
	fset  *token.FileSet
	files map[*ast.File]*Directives
}

// NewDirectiveCache returns an empty cache over fset.
func NewDirectiveCache(fset *token.FileSet) *DirectiveCache {
	return &DirectiveCache{fset: fset, files: make(map[*ast.File]*Directives)}
}

// For returns the directive index of the file of unit containing pos,
// or nil when pos falls outside the unit's files.
func (dc *DirectiveCache) For(unit *PackageUnit, pos token.Pos) *Directives {
	for _, f := range unit.Files {
		if f.Pos() <= pos && pos <= f.End() {
			d, ok := dc.files[f]
			if !ok {
				d = ParseDirectives(dc.fset, f)
				dc.files[f] = d
			}
			return d
		}
	}
	return nil
}

// FileDirectives returns every //hetpnoc: directive in file, in source
// order, regardless of placement. lockorder collects its module-wide
// //hetpnoc:lockorder declarations this way.
func FileDirectives(file *ast.File) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if dir, ok := parseDirective(c.Pos(), c.Text); ok {
				out = append(out, dir)
			}
		}
	}
	return out
}

// FuncDirectives returns every //hetpnoc: directive in fn's doc comment,
// in source order. A declaration can stack multiple directives — e.g.
// //hetpnoc:hotpath above //hetpnoc:locked mu.
func FuncDirectives(fn *ast.FuncDecl) []Directive {
	if fn.Doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range fn.Doc.List {
		if dir, ok := parseDirective(c.Pos(), c.Text); ok {
			out = append(out, dir)
		}
	}
	return out
}

// FuncDirective returns the first directive named name in fn's doc
// comment. The bool reports whether one was found.
func FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	for _, dir := range FuncDirectives(fn) {
		if dir.Name == name {
			return dir, true
		}
	}
	return Directive{}, false
}

// HasHotpath reports whether fn's doc comment carries //hetpnoc:hotpath.
func HasHotpath(fn *ast.FuncDecl) bool {
	_, ok := FuncDirective(fn, DirectiveHotpath)
	return ok
}
