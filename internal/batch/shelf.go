package batch

import (
	"slices"
	"sync"
	"sync/atomic"

	"hetpnoc/internal/fabric"
)

// shelfCapacity bounds the pristine builds kept between plans. An entry
// is a built fabric (≈ 600 KB) and its cycle-0 checkpoint (≈ 170 KB), so
// a full shelf holds ≈ 12 MB. Sixteen covers every build shape a figure
// panel (six) or the 256-point sweep (eight) touches, with room for a
// service's hot prefixes beside them. A constant, not an option: no
// caller needs another value.
const shelfCapacity = 16

// pristine is a group's build: the fabric, its cycle-0 checkpoint and the
// defaulted config that built it.
type pristine struct {
	spec fabric.Config
	f    *fabric.Fabric
	cp   *fabric.Checkpoint
}

// shelf keeps pristine builds across plans, oldest first. A group takes
// an entry out for as long as it runs, so no two groups ever step one
// fabric, and puts it back only after every member has finished without
// error. What a fabric holds after a member's run is rewound by the next
// fork, exactly as within a group. Like a sync.Pool it is a cache: what
// it holds changes how long a run takes, never its result.
var shelf struct {
	mu      sync.Mutex
	entries []pristine
}

// builds and forks count, process-wide, the fabric.New calls runGroup
// makes and the Restore + SetLoadScale + Reseed sequences fork runs.
var builds, forks atomic.Int64

// Counters reports how many fabrics the process has built and how many
// members it has forked off a cycle-0 checkpoint instead. A group that
// finds its prefix on the shelf adds one fork per member and no build.
func Counters() (fabricBuilds, fabricForks int64) {
	return builds.Load(), forks.Load()
}

// take removes and returns the most recently shelved build spec may
// share (sharablePrefix), if there is one.
func take(spec fabric.Config) (pristine, bool) {
	shelf.mu.Lock()
	defer shelf.mu.Unlock()
	for i := len(shelf.entries) - 1; i >= 0; i-- {
		if sharablePrefix(shelf.entries[i].spec, spec) {
			p := shelf.entries[i]
			shelf.entries = slices.Delete(shelf.entries, i, i+1)
			return p, true
		}
	}
	return pristine{}, false
}

// shelve puts p back, evicting the oldest entry when the shelf is full.
func shelve(p pristine) {
	shelf.mu.Lock()
	defer shelf.mu.Unlock()
	if len(shelf.entries) == shelfCapacity {
		shelf.entries = slices.Delete(shelf.entries, 0, 1)
	}
	shelf.entries = append(shelf.entries, p)
}
