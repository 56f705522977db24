// Fixture: a simulator package reaching for every forbidden entropy and
// wall-clock source, plus the allowed time.Duration quantities.
package sim

import (
	crand "crypto/rand" // want `import of crypto/rand is forbidden in simulator packages`
	mrand "math/rand"   // want `import of math/rand is forbidden in simulator packages`
	"time"

	clk "time"
)

func Draw() int {
	return mrand.Int()
}

func Entropy(b []byte) {
	_, _ = crand.Read(b)
}

func Stamp() int64 {
	t := time.Now() // want `time.Now reads the wall clock`
	d := time.Since(t) // want `time.Since reads the wall clock`
	time.Sleep(d) // want `time.Sleep reads the wall clock`
	return t.UnixNano()
}

func Renamed() int64 {
	return clk.Now().UnixNano() // want `time.Now reads the wall clock`
}

// Period is fine: time.Duration and its constants are physical
// quantities, not clock reads.
func Period(hz float64) time.Duration {
	return time.Duration(float64(time.Second) / hz)
}
