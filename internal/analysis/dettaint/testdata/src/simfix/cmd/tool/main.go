// Fixture: tooling packages are outside the simulator core and may use
// wall-clock time and math/rand freely — nothing here is flagged.
package main

import (
	"math/rand"
	"time"
)

func main() {
	start := time.Now()
	_ = rand.Int()
	_ = time.Since(start)
}
