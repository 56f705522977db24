// Package sim exercises snapcover: every capture/restore pair must
// cover each mutable field of its subject, transitively through
// slice-of-struct state, with justified //hetpnoc:nosnap exemptions.
package sim

// Counter snapshots but can never be rewound.
type Counter struct{ n int }

// Bump makes n mutable.
func (c *Counter) Bump() { c.n++ }

// Snapshot has no restore counterpart.
func (c *Counter) Snapshot() int { return c.n } // want `Counter\.Snapshot has no restore counterpart: the snapshot can never be applied \(missing-restore\)`

// Engine misses one field on each side, carries one immutable config
// field, and exempts two fields (one justified, one not).
type Engine struct {
	count      int
	missed     int
	unrestored int
	cfg        int

	//hetpnoc:nosnap derived scratch, rebuilt lazily on first use
	skip int

	//hetpnoc:nosnap
	bad int // want `//hetpnoc:nosnap needs a justification for excluding the field from checkpoints`
}

// NewEngine's writes are build-time: cfg stays immutable.
func NewEngine(cfg int) *Engine { return &Engine{cfg: cfg} }

// Step makes the remaining fields mutable.
func (e *Engine) Step() {
	e.count++
	e.missed++
	e.unrestored++
	e.skip++
	e.bad++
}

// EngineSnap is the externally-materialized snapshot.
type EngineSnap struct {
	count      int
	unrestored int
}

// Snapshot forgets missed entirely.
func (e *Engine) Snapshot() *EngineSnap { // want `Engine\.Snapshot does not capture mutable field Engine\.missed: a restored run silently diverges`
	return &EngineSnap{count: e.count, unrestored: e.unrestored}
}

// Restore re-applies count but never writes unrestored (or missed) back.
func (e *Engine) Restore(s *EngineSnap) { // want `Engine\.Restore does not restore mutable field Engine\.missed` `Engine\.Restore does not restore mutable field Engine\.unrestored`
	e.count = s.count
}

// Pair is element state reached transitively through Grid.cells.
type Pair struct{ a, b int }

// Grid's pair touches element field a without a wholesale element
// transfer, so snapcover descends into Pair and finds b uncovered.
type Grid struct {
	cells []Pair
}

// Step makes both element fields mutable.
func (g *Grid) Step(i int) {
	g.cells[i].a++
	g.cells[i].b++
}

// GridSnap captures only the a column.
type GridSnap struct{ a []int }

// Snapshot walks elements but copies just a.
func (g *Grid) Snapshot() *GridSnap { // want `Grid\.Snapshot does not capture mutable field Grid\.cells\.b`
	s := &GridSnap{}
	for i := range g.cells {
		s.a = append(s.a, g.cells[i].a)
	}
	return s
}

// Restore writes the a column back.
func (g *Grid) Restore(s *GridSnap) { // want `Grid\.Restore does not restore mutable field Grid\.cells\.b`
	for i := range s.a {
		g.cells[i].a = s.a[i]
	}
}

// Slot is element state transferred wholesale below.
type Slot struct{ v int }

// Ring is clean: copy() and an append spread move whole elements, so
// element-wise completeness is implied and no descent happens even
// though Step mutates element fields.
type Ring struct {
	slots []Slot
	head  int
}

// Step makes slot contents and the cursor mutable.
func (r *Ring) Step() {
	r.slots[r.head].v++
	r.head++
}

// RingSnap mirrors the ring.
type RingSnap struct {
	slots []Slot
	head  int
}

// Snapshot clones the elements wholesale.
func (r *Ring) Snapshot() *RingSnap {
	return &RingSnap{slots: append([]Slot(nil), r.slots...), head: r.head}
}

// Restore copies them back wholesale.
func (r *Ring) Restore(s *RingSnap) {
	copy(r.slots, s.slots)
	r.head = s.head
}

// Machine keeps its checkpointed fields in an embedded state that its
// pair copies whole, so ticks and log need no naming; stray sits outside
// the state and is missed on both sides.
type Machine struct {
	//hetpnoc:nosnap derived from ticks, rebuilt by Restore
	cache int
	stray int
	machineState
}

type machineState struct {
	ticks int
	log   []int
}

// Step makes every field mutable.
func (m *Machine) Step() {
	m.ticks++
	m.log = append(m.log, m.ticks)
	m.stray++
	m.cache = m.ticks
}

// Snapshot copies the state whole, then its slice.
func (m *Machine) Snapshot() machineState { // want `Machine\.Snapshot does not capture mutable field Machine\.stray`
	s := m.machineState
	s.log = append([]int(nil), m.log...)
	return s
}

// Restore copies it back whole through a helper.
func (m *Machine) Restore(s *machineState) { // want `Machine\.Restore does not restore mutable field Machine\.stray`
	m.machineState.copyFrom(s)
	m.cache = m.ticks
}

func (dst *machineState) copyFrom(src *machineState) {
	keep := *dst
	*dst = *src
	dst.log = append(keep.log[:0], src.log...)
}

// Gauge embeds a state its pair never copies whole, so each field is
// checked by name.
type Gauge struct{ gaugeState }

type gaugeState struct{ level, peak int }

// Step makes both fields mutable.
func (g *Gauge) Step() {
	g.level++
	g.peak++
}

// Snapshot names only level.
func (g *Gauge) Snapshot() int { // want `Gauge\.Snapshot does not capture mutable field Gauge\.peak`
	return g.level
}

// Restore names only level.
func (g *Gauge) Restore(level int) { // want `Gauge\.Restore does not restore mutable field Gauge\.peak`
	g.level = level
}

// Counters hands a pointer to next out at construction and the holder
// advances it, so next is mutable though no method of Counters writes
// it.
type Counters struct {
	next int
	seen int
}

// NewCounters returns the counters and the pointer that advances next.
func NewCounters() (*Counters, *int) {
	c := &Counters{}
	return c, &c.next
}

// See makes seen mutable.
func (c *Counters) See() { c.seen++ }

// Snapshot forgets next.
func (c *Counters) Snapshot() int { // want `Counters\.Snapshot does not capture mutable field Counters\.next`
	return c.seen
}

// Restore forgets next.
func (c *Counters) Restore(seen int) { // want `Counters\.Restore does not restore mutable field Counters\.next`
	c.seen = seen
}
