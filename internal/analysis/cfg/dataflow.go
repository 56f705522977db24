package cfg

import (
	"go/ast"
	"sort"
)

// FactSet is a set of string facts under the "must" lattice: the meet of
// two sets is their intersection, so a fact survives a join point only
// when it holds on every incoming path. lockguard's facts are held locks
// ("w:Server.mu", "r:Server.mu"); other analyzers can reuse the engine
// with their own vocabulary.
type FactSet map[string]struct{}

// NewFactSet builds a set from facts.
func NewFactSet(facts ...string) FactSet {
	s := make(FactSet, len(facts))
	for _, f := range facts {
		s[f] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s FactSet) Has(f string) bool { _, ok := s[f]; return ok }

// Add inserts f.
func (s FactSet) Add(f string) { s[f] = struct{}{} }

// Remove deletes f.
func (s FactSet) Remove(f string) { delete(s, f) }

// Clone returns an independent copy.
func (s FactSet) Clone() FactSet {
	c := make(FactSet, len(s))
	for f := range s { //hetpnoc:orderfree copies into another set
		c[f] = struct{}{}
	}
	return c
}

// Sorted returns the facts in lexical order, for diagnostics and tests.
func (s FactSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for f := range s { //hetpnoc:orderfree collected then sorted
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// union returns a ∪ b as a fresh set.
func union(a, b FactSet) FactSet {
	out := make(FactSet, len(a)+len(b))
	for f := range a { //hetpnoc:orderfree copies into another set
		out[f] = struct{}{}
	}
	for f := range b { //hetpnoc:orderfree copies into another set
		out[f] = struct{}{}
	}
	return out
}

// intersect returns a ∩ b as a fresh set.
func intersect(a, b FactSet) FactSet {
	out := make(FactSet)
	for f := range a { //hetpnoc:orderfree intersection is order-insensitive
		if _, ok := b[f]; ok {
			out[f] = struct{}{}
		}
	}
	return out
}

// equal reports set equality.
func equal(a, b FactSet) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a { //hetpnoc:orderfree pure membership test
		if _, ok := b[f]; !ok {
			return false
		}
	}
	return true
}

// ForwardMust runs a forward must-dataflow to fixpoint and returns the
// facts holding at each block's entry on every path from the function
// entry. transfer applies one node's effect to facts in place, in the
// block's execution order. Blocks the worklist never reaches are
// unreachable; they have no entry in the result and callers skip them.
//
// Termination: per block, the entry set only ever shrinks (meet is
// intersection against an initial snapshot), so the worklist drains for
// any transfer whose generated facts depend only on the node.
func (g *Graph) ForwardMust(entry FactSet, transfer func(n ast.Node, facts FactSet)) map[*Block]FactSet {
	if len(g.Blocks) == 0 {
		return nil
	}
	in := map[*Block]FactSet{g.Blocks[0]: entry.Clone()}
	work := []*Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		out := in[b].Clone()
		for _, n := range b.Nodes {
			transfer(n, out)
		}
		for _, s := range b.Succs {
			cur, seen := in[s]
			if !seen {
				in[s] = out.Clone()
				work = append(work, s)
				continue
			}
			next := intersect(cur, out)
			if !equal(cur, next) {
				in[s] = next
				work = append(work, s)
			}
		}
	}
	return in
}

// ForwardMay runs a forward may-dataflow to fixpoint and returns the
// facts holding at each block's entry on at least one path from the
// function entry: the meet is union, so a fact survives a join point
// when any incoming path carries it. It is the dual of ForwardMust —
// vflow asks "can this definition reach this use on *some* path?",
// where a must-analysis would only see the paths all agreeing.
//
// Termination: per block, the entry set only ever grows, and the fact
// universe is bounded by what transfer generates from the function's
// finitely many nodes.
func (g *Graph) ForwardMay(entry FactSet, transfer func(n ast.Node, facts FactSet)) map[*Block]FactSet {
	if len(g.Blocks) == 0 {
		return nil
	}
	in := map[*Block]FactSet{g.Blocks[0]: entry.Clone()}
	work := []*Block{g.Blocks[0]}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		out := in[b].Clone()
		for _, n := range b.Nodes {
			transfer(n, out)
		}
		for _, s := range b.Succs {
			cur, seen := in[s]
			if !seen {
				in[s] = out.Clone()
				work = append(work, s)
				continue
			}
			next := union(cur, out)
			if !equal(cur, next) {
				in[s] = next
				work = append(work, s)
			}
		}
	}
	return in
}
