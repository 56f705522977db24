// Package hot exercises hotpathreach: helpers reachable from the
// annotated root inherit the hot-path allocation rules, with the call
// chain appended to each diagnostic.
package hot

import (
	"fmt"

	"reach/helper"
)

// Step is the annotated root. Its own body is checked too, without a
// call chain.
//
//hetpnoc:hotpath
func Step(vals []int) {
	_ = fmt.Sprintf("cycle %d", len(vals)) // want `fmt\.Sprintf formats \(and boxes its operands\) on a hot path$`
	tick(vals)
	_ = helper.Sum(vals)
	//hetpnoc:coldcall diagnostics only run on invariant violation
	explain(vals)
	//hetpnoc:coldcall
	noWhy(vals) // want `//hetpnoc:coldcall needs a justification for leaving the hot path`
}

func tick(vals []int) {
	_ = fmt.Sprintf("tick %d", len(vals)) // want `fmt\.Sprintf formats \(and boxes its operands\) on a hot path \(hot path: hot\.Step -> hot\.tick\)`
}

// explain is severed by a justified coldcall; its fmt call must not be
// reported.
func explain(vals []int) {
	_ = fmt.Sprintf("bad %v", vals)
}

// noWhy's coldcall lacks a justification: the directive itself is the
// error, and the edge stays severed, so this body is not checked.
func noWhy(vals []int) {
	_ = fmt.Sprintf("why %v", vals)
}
