package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectiveCtxRoot marks a function that legitimately mints a fresh
// context (process entry points, compatibility wrappers); ctxflow flags
// context.Background/TODO everywhere else. A directive is a
// //hetpnoc:<name> comment in a function's doc comment, followed by its
// justification, so every exemption records why it is safe.
const DirectiveCtxRoot = "ctxroot"

const directivePrefix = "//hetpnoc:"

// Directive is one parsed //hetpnoc: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "ctxroot"
	// Arg is the text after the name, trimmed: the justification.
	Arg string
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

// FuncDirective returns the first directive named name in fn's doc
// comment; a declaration can stack several. The bool reports whether one
// was found.
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
