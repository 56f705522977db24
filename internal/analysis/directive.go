package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The simulator's lint directives. A directive is a //hetpnoc:<name>
// comment; most additionally require an argument after the name — a
// justification — so every suppression records why it is safe.
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

	// DirectiveCtxRoot marks a function that legitimately mints a fresh
	// context (process entry points, compatibility wrappers); ctxflow
	// flags context.Background/TODO everywhere else.
	DirectiveCtxRoot = "ctxroot"

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
)

const directivePrefix = "//hetpnoc:"

// Directive is one parsed //hetpnoc: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "orderfree", "hotpath", "coldcall"
	// Arg is the text after the name, trimmed: the justification.
	Arg string

	// Trailing reports that the comment follows code on its own line
	// (`setup() //hetpnoc:coldcall one-shot`). A trailing directive
	// covers only that line — it never leaks onto the declaration below
	// it the way an own-line comment covers the line underneath.
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
	return d.CoveringLine(d.fset.Position(n.Pos()).Line, name)
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

// FuncDirective returns the first directive named name in fn's doc
// comment; a declaration can stack several (//hetpnoc:hotpath above
// //hetpnoc:ctxroot). The bool reports whether one was found.
func FuncDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	if fn.Doc == nil {
		return Directive{}, false
	}
	for _, c := range fn.Doc.List {
		if dir, ok := parseDirective(c.Pos(), c.Text); ok && dir.Name == name {
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
