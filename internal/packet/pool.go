package packet

// Pool is a free-list of Packet structs. The simulator generates one
// packet per transfer and drops the reference as soon as the tail flit is
// consumed (or the packet is lost), so recycling the structs removes the
// dominant steady-state allocation of the cycle loop. A nil *Pool is
// valid and always allocates.
//
// The pool is not safe for concurrent use; each fabric owns its own.
type Pool struct {
	free []*Packet

	// gets and puts count every packet handed out and returned; their
	// difference is the number of live packets drawn from this pool,
	// the in-flight term of the conservation invariant the property
	// tests check (injected = delivered + lost + live).
	gets int64
	puts int64
}

// Get returns a zeroed packet, reusing a recycled one when available.
//
//hetpnoc:hotpath
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return newPacket()
	}
	pl.gets++
	if len(pl.free) == 0 {
		return newPacket()
	}
	n := len(pl.free) - 1
	p := pl.free[n]
	pl.free[n] = nil
	pl.free = pl.free[:n]
	*p = Packet{}
	return p
}

// newPacket is Get's allocation fallback for a nil pool or a drained
// free list. Splitting it out keeps the heap allocation off Get's fast
// path: once the pool warms up, every Get recycles.
//
//hetpnoc:coldcall pool-miss fallback; steady state recycles and never reaches it
//go:noinline
func newPacket() *Packet { return &Packet{} }

// Put recycles p. The caller must hold the only remaining reference:
// after the next Get the struct is rewritten in place.
//
//hetpnoc:hotpath
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	pl.puts++
	pl.free = append(pl.free, p)
}

// Live returns the number of packets drawn from the pool and not yet
// returned — exactly the packets somewhere in the fabric: source queues,
// router buffers, photonic channels, or the retransmission queue.
func (pl *Pool) Live() int64 {
	if pl == nil {
		return 0
	}
	return pl.gets - pl.puts
}

// PoolSnapshot is a checkpoint of the free list and the conservation
// counters. The free packets' contents are irrelevant (Get rewrites
// them), so only the pointers are saved.
type PoolSnapshot struct {
	free []*Packet
	gets int64
	puts int64
}

// Snapshot copies the pool's state.
func (pl *Pool) Snapshot() *PoolSnapshot {
	if pl == nil {
		return nil
	}
	return &PoolSnapshot{
		free: append([]*Packet(nil), pl.free...),
		gets: pl.gets,
		puts: pl.puts,
	}
}

// Restore rewinds the pool to a snapshot. Packets handed out after the
// snapshot was taken return to being free; packets freed since return to
// being live (their contents are the fabric checkpoint's concern).
func (pl *Pool) Restore(s *PoolSnapshot) {
	if pl == nil || s == nil {
		return
	}
	for i := len(s.free); i < len(pl.free); i++ {
		pl.free[i] = nil
	}
	pl.free = append(pl.free[:0], s.free...)
	pl.gets = s.gets
	pl.puts = s.puts
}

// Queue is a FIFO of packets backed by a reusable ring, replacing the
// append/re-slice idiom that leaks the front capacity of the backing
// array on every dequeue.
type Queue struct {
	buf   []*Packet
	head  int
	count int
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.count }

// Head returns the oldest queued packet without removing it, or nil when
// the queue is empty.
func (q *Queue) Head() *Packet {
	if q.count == 0 {
		return nil
	}
	return q.buf[q.head]
}

// Push appends p, growing the ring as needed.
//
//hetpnoc:hotpath
func (q *Queue) Push(p *Packet) {
	if q.count == len(q.buf) {
		//hetpnoc:coldcall amortized ring growth, O(log capacity) times per queue, never steady-state
		q.grow()
	}
	slot := q.head + q.count
	if slot >= len(q.buf) {
		slot -= len(q.buf)
	}
	q.buf[slot] = p
	q.count++
}

// Pop removes and returns the oldest packet, or nil when empty.
//
//hetpnoc:hotpath
func (q *Queue) Pop() *Packet {
	if q.count == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.count--
	return p
}

// Snapshot appends the queued packets to dst in FIFO order and returns
// the extended slice, for checkpointing.
func (q *Queue) Snapshot(dst []*Packet) []*Packet {
	for i := 0; i < q.count; i++ {
		slot := q.head + i
		if slot >= len(q.buf) {
			slot -= len(q.buf)
		}
		dst = append(dst, q.buf[slot])
	}
	return dst
}

// Restore replaces the queue's contents with ps (oldest first), reusing
// the ring storage when it is large enough.
func (q *Queue) Restore(ps []*Packet) {
	if len(ps) > len(q.buf) {
		q.buf = make([]*Packet, len(ps))
	}
	for i := range q.buf {
		q.buf[i] = nil
	}
	copy(q.buf, ps)
	q.head = 0
	q.count = len(ps)
}

// grow doubles the ring capacity, linearizing the contents at the front.
func (q *Queue) grow() {
	newCap := 2 * len(q.buf)
	if newCap < 8 {
		newCap = 8
	}
	buf := make([]*Packet, newCap)
	for i := 0; i < q.count; i++ {
		slot := q.head + i
		if slot >= len(q.buf) {
			slot -= len(q.buf)
		}
		buf[i] = q.buf[slot]
	}
	q.buf = buf
	q.head = 0
}
