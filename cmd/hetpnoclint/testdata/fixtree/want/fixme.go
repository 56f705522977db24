// Package fixtree is a deliberately broken tree: every violation below
// carries a machine-applicable fix, and the want/ twin of this tree is
// the byte-exact output `hetpnoclint -fix` must produce.
package fixtree

// Fab steps a simulated fabric.
type Fab struct{}

// Step advances n cycles.
func (f *Fab) Step(n int) error { return nil }

// Drain empties the fabric and reports how many packets it dropped.
func (f *Fab) Drain() (int, error) { return 0, nil }

// Run drops one error, and another beside a second result.
func Run(f *Fab) {
	_ = f.Step(1)
	_, _ = f.Drain()
}
