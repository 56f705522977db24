// Package leakcheck fails a test that leaks goroutines. Check
// snapshots the live goroutines when called and registers a cleanup
// that re-snapshots after the test body: any goroutine that appeared
// during the test, is still running, and is not on the allowlist is a
// leak. Shutdown is asynchronous, so the cleanup retries until a
// deadline before declaring the leak — a goroutine mid-exit gets time
// to finish, a stuck one does not.
//
// The allowlist covers goroutines whose lifetime the test does not
// own: the runtime's own workers, testing harness goroutines, signal
// handling, and net/http's pooled connections (their keep-alive timers
// outlive a handler by design).
//
// This is the goroutine-lifetime gate: a package that adds a go
// statement arms Check in its tests (docs/ANALYSIS.md), as the serve,
// batch, sweep and hetpnocd suites do under -race.
package leakcheck

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// defaultAllow matches goroutines owned by the runtime, the test
// harness, or stdlib pools rather than the code under test.
var defaultAllow = []string{
	"created by runtime.",
	"created by testing.",
	"created by os/signal.",
	"testing.tRunner",
	"testing.runFuzzing",
	"testing.runTests",
	"net/http.(*persistConn)",
	"net/http.(*Transport)",
	"created by net/http/httptest.",
	"runtime.goexit",
}

// deadline is how long Check's cleanup keeps retrying before it
// declares a goroutine leaked.
const deadline = 5 * time.Second

// Check arms the leak detector for the current test. Call it first in
// the test body; the verification runs from t.Cleanup, after the body
// and its own cleanups finish.
func Check(t testing.TB) {
	t.Helper()
	before := snapshot()
	t.Cleanup(func() {
		leaked := verify(before, defaultAllow, deadline)
		for _, stack := range leaked {
			t.Errorf("leaked goroutine:\n%s", stack)
		}
	})
}

// verify retries the snapshot comparison until no new goroutine
// remains or the deadline passes, then returns the surviving stacks.
func verify(before map[int64]string, allow []string, deadline time.Duration) []string {
	var leaked []string
	for end := time.Now().Add(deadline); ; {
		leaked = leaked[:0]
		for id, stack := range snapshot() {
			if _, ok := before[id]; ok {
				continue
			}
			if allowed(stack, allow) {
				continue
			}
			leaked = append(leaked, stack)
		}
		if len(leaked) == 0 || time.Now().After(end) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	sortStacks(leaked)
	return leaked
}

func allowed(stack string, allow []string) bool {
	for _, substr := range allow {
		if strings.Contains(stack, substr) {
			return true
		}
	}
	return false
}

// snapshot dumps every live goroutine keyed by its runtime ID.
func snapshot() map[int64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[int64]string)
	for _, chunk := range strings.Split(string(buf), "\n\n") {
		if id, ok := parseID(chunk); ok {
			out[id] = chunk
		}
	}
	return out
}

// parseID extracts N from a "goroutine N [state]:" dump header.
func parseID(chunk string) (int64, bool) {
	const prefix = "goroutine "
	if !strings.HasPrefix(chunk, prefix) {
		return 0, false
	}
	rest := chunk[len(prefix):]
	end := strings.IndexByte(rest, ' ')
	if end < 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(rest[:end], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// sortStacks orders leaked stacks for deterministic failure output.
func sortStacks(stacks []string) {
	for i := 1; i < len(stacks); i++ {
		for j := i; j > 0 && stacks[j] < stacks[j-1]; j-- {
			stacks[j], stacks[j-1] = stacks[j-1], stacks[j]
		}
	}
}
