// Package analysis is a small, dependency-free analysis framework
// modelled on golang.org/x/tools/go/analysis. The container this repo is
// grown in cannot fetch external modules, so instead of depending on
// x/tools the repo carries this minimal mirror of its API: an Analyzer
// owns a Run function, a Pass hands it one type-checked package, and
// diagnostics flow back through Pass.Report.
//
// The surface is deliberately the subset the hetpnoclint suite needs —
// if the module ever gains network access, the analyzers port to the
// real go/analysis by swapping this import and deleting nothing else.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and JSON output. By
	// convention it is a single lowercase word.
	Name string

	// Doc is the analyzer's documentation: first line summary, then
	// detail.
	Doc string

	// Run applies the analyzer to one package. Exactly one of Run and
	// RunModule is set.
	Run func(*Pass) error

	// RunModule, when set, applies the analyzer once to the whole
	// module instead of package-by-package: allocproof matches one
	// compiler build's facts against every package.
	RunModule func(*ModulePass) error
}

// Pass provides one analyzer run with the information about a single
// type-checked package and a sink for its diagnostics.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet

	// Files are the parsed source files of the package, including any
	// in-package _test.go files.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo holds the type information for Files.
	TypesInfo *types.Info

	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string

	// Suggestion, when non-empty, is a -fix-style hint: the rewrite
	// that removes the violation.
	Suggestion string

	// Fixes are machine-applicable rewrites that remove the violation.
	// cmd/hetpnoclint -fix applies them across the repo; a diagnostic
	// without fixes needs a human to restructure the code.
	Fixes []SuggestedFix
}

// SuggestedFix is one coherent mechanical rewrite: all of its edits are
// applied together or not at all (the fix engine drops the whole fix on
// a conflict with another fix's edits).
type SuggestedFix struct {
	// Message describes the rewrite, e.g. "make the dropped error explicit".
	Message string

	// TextEdits are the byte-range replacements. Ranges within one fix
	// must not overlap.
	TextEdits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText. Pos == End
// inserts before Pos.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// PackageUnit is one type-checked package as seen by a module-level
// analyzer: the same data a Pass carries, minus the per-analyzer
// plumbing. The loader produces one unit per package (plus one per
// external test package).
type PackageUnit struct {
	// Path is the import path; external test packages carry the
	// "_test" suffix.
	Path string

	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// ModulePass hands a whole-program analyzer every package of the module
// at once. Packages share one FileSet and one type-checker run.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*PackageUnit

	// Report delivers one diagnostic; positions may fall in any package.
	Report func(Diagnostic)

	// Cache, when non-nil, is shared by every module analyzer of one
	// lint invocation so expensive derived structures (the compiler
	// evidence) are built once and reused. Keys are owned by the package
	// that computes the value (allocproof's DirKey and ReportKey).
	Cache map[string]any
}

// Reportf reports a formatted diagnostic at pos, mirroring
// Pass.Reportf for module-level analyzers.
func (mp *ModulePass) Reportf(pos token.Pos, msg, suggestion string) {
	mp.Report(Diagnostic{Pos: pos, Message: msg, Suggestion: suggestion})
}

// Reportf reports a formatted diagnostic at pos. It keeps analyzer
// bodies terse without pulling fmt into every call site.
func (p *Pass) Reportf(pos token.Pos, msg, suggestion string) {
	p.Report(Diagnostic{Pos: pos, Message: msg, Suggestion: suggestion})
}

// TypeOf returns the type of expression e, or nil if not found.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}
