// Package sim exercises dettaint from the simulator side: calls into
// transitively nondeterministic helpers are errors, a source used
// directly is reported once where it stands (not again at its callers),
// and //hetpnoc:detsafe contains deliberate sampling.
package sim

import (
	mrand "math/rand" // want `import of math/rand is forbidden in simulator packages`
	"testing/quick"
	"time"

	"dt/helper"
)

func Tick() {
	helper.Jitter() // want `call to helper\.Jitter is nondeterministic in a simulator package \(taint: helper\.Jitter -> helper\.entropy -> time\.Now\)`
	helper.Shuffle() // want `call to helper\.Shuffle is nondeterministic in a simulator package \(taint: helper\.Shuffle -> range over map\)`
	helper.Clean()
	helper.SortedWalk()
}

func Prop() {
	_ = quick.Check(func() bool { return true }, nil) // want `testing/quick\.Check draws unseeded randomness in a simulator package`
}

// SafeProp samples deliberately; the annotation suppresses its reports.
//
//hetpnoc:detsafe property test prints the counterexample, state untouched
func SafeProp() {
	_ = quick.Check(func() bool { return true }, nil)
	helper.Jitter()
}

// BadDetsafe's directive is missing its justification.
//
//hetpnoc:detsafe
func BadDetsafe() {} // want `//hetpnoc:detsafe needs a justification`

// wall is reported at the source, exactly once: the direct use is not
// also a taint-chain finding.
func wall() time.Duration { return time.Since(time.Time{}) } // want `time\.Since reads the wall clock`

// stamp mixes a forbidden import with a direct clock read: the import
// line carries the math/rand report, the call site only time.Now's.
func stamp() int64 { return time.Now().UnixNano() + mrand.Int63() } // want `time\.Now reads the wall clock`

// Outer calls tainted sim-package functions; each source already
// carries its own report, so these edges stay silent.
func Outer() { _, _ = wall(), stamp() }
