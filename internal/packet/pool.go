package packet

import "slices"

// poolChunk is the number of packets the pool allocates at a time. It is
// small enough that a short run over-allocates a few KiB at most and
// large enough that a saturated one allocates a packet's storage once per
// 64 packets of peak occupancy.
const poolChunk = 64

// Pool owns every packet a fabric moves. Packets live in fixed-size
// chunks that are never moved or released, so a *Packet stays valid (and
// stays the currency of VCs, queues, engines and circuits) for the
// pool's lifetime, and a checkpoint of the pool — slot contents, free
// list, counters — is a checkpoint of every packet in flight. The
// simulator generates one packet per transfer and retires it as soon as
// the tail flit is consumed (or the packet is lost), so recycling the
// slots removes the dominant steady-state allocation of the cycle loop.
// The zero Pool is ready to use.
//
// The pool is not safe for concurrent use; each fabric owns its own.
type Pool struct {
	// chunks hold the packets. A checkpoint saves the contents of the
	// used slots, never the chunks: growth only appends, so a restored
	// pool finds every chunk it had.
	chunks []*[poolChunk]Packet

	state
}

// state is the pool's bookkeeping, checkpointed beside the slot
// contents.
type state struct {
	// used counts the slots handed out at least once, in chunk order:
	// slot i is chunks[i/poolChunk][i%poolChunk].
	used int
	// free lists the used slots that were returned, last in first out.
	free []*Packet

	// gets and puts count every packet handed out and returned; their
	// difference is the number of live packets drawn from this pool,
	// the in-flight term of the conservation invariant the property
	// tests check (injected = delivered + lost + live).
	gets int64
	puts int64
}

// copyFrom makes dst a copy of src that shares no backing array with it,
// reusing dst's arrays.
func (dst *state) copyFrom(src *state) {
	keep := *dst
	*dst = *src
	dst.free = append(keep.free[:0], src.free...)
}

// Get returns a zeroed packet: the most recently recycled slot when
// there is one, the next unused slot otherwise.
func (pl *Pool) Get() *Packet {
	pl.gets++
	var p *Packet
	if n := len(pl.free) - 1; n >= 0 {
		p = pl.free[n]
		pl.free = pl.free[:n]
	} else {
		if pl.used == len(pl.chunks)*poolChunk {
			pl.grow()
		}
		p = &pl.chunks[pl.used/poolChunk][pl.used%poolChunk]
		pl.used++
	}
	*p = Packet{}
	return p
}

// grow adds a chunk. Splitting it out keeps the heap allocation off
// Get's fast path: once the pool warms up, every Get recycles.
// It runs once per 64 packets of peak occupancy.
//
//go:noinline
func (pl *Pool) grow() { pl.chunks = append(pl.chunks, new([poolChunk]Packet)) }

// Put recycles p, which must be a slot of this pool — a packet made any
// other way would sit outside the slab a checkpoint copies. The caller
// must hold the only remaining reference: after the next Get the slot is
// rewritten in place.
func (pl *Pool) Put(p *Packet) {
	pl.puts++
	pl.free = append(pl.free, p)
}

// Live returns the number of packets drawn from the pool and not yet
// returned — exactly the packets somewhere in the fabric: source queues,
// router buffers, photonic channels, or the retransmission queue.
func (pl *Pool) Live() int64 { return pl.gets - pl.puts }

// PoolSnapshot is the pool's bookkeeping in a checkpoint; the slot
// contents travel beside it (Snapshot, Restore).
type PoolSnapshot = state

// Snapshot copies the pool's bookkeeping into dst and the contents of
// every used slot into slots, reusing their arrays, and returns slots.
func (pl *Pool) Snapshot(dst *PoolSnapshot, slots []Packet) []Packet {
	dst.copyFrom(&pl.state)
	slots = slices.Grow(slots[:0], pl.used)
	for i := 0; i < pl.used; i += poolChunk {
		slots = append(slots, pl.chunks[i/poolChunk][:min(poolChunk, pl.used-i)]...)
	}
	return slots
}

// Restore rewinds the pool to a snapshot taken from it: every slot in
// use then reads its saved contents through the pointers its holders
// kept, and slots first used since are unused again — the chunks they
// sit in stay, so the run that follows re-draws the same slots.
func (pl *Pool) Restore(s *PoolSnapshot, slots []Packet) {
	pl.state.copyFrom(s)
	for i, c := range pl.chunks {
		copy(c[:], slots[min(i*poolChunk, len(slots)):])
	}
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
func (q *Queue) Push(p *Packet) {
	if q.count == len(q.buf) {
		// Amortized: O(log capacity) times per queue, never in steady state.
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
	buf := q.buf
	if len(ps) > len(buf) {
		buf = make([]*Packet, len(ps))
	}
	clear(buf)
	*q = Queue{buf: buf}
	for _, p := range ps {
		q.Push(p)
	}
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
