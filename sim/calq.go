package sim

// The calendar event queue: a timing wheel over the near future plus a
// small binary heap for far-out timers, replacing the single
// container/heap of the original engine. The motivation is the
// 64-512-rank fat-tree worlds: at that scale the simulator spends most
// of its wall time inside the event queue, and a binary heap pays
// O(log n) pointer-chasing compares per operation where the wheel pays
// O(1) appends and pops.
//
//   - Events due within wheelHorizon of the wheel base land in one of
//     wheelBuckets fixed-width buckets, each a small slice kept sorted
//     by (at, seq). Nearly every insert is a tail append (times are
//     mostly nondecreasing within a bucket's 64 ns window) and every
//     pop is a head read through a cursor, so the steady state touches
//     no allocator at all.
//   - Events beyond the horizon (retransmit timers, experiment
//     deadlines) go to a local min-heap ordered by the same (at, seq)
//     key. As the wheel base advances, newly covered far events
//     migrate into the freshly vacated buckets, preserving the
//     invariant that every event in the far heap is at least one full
//     horizon away.
//   - Event structs are pooled: a freelist over chunk-allocated slabs,
//     with a generation counter so a Timer held across the event's
//     recycling can never cancel an unrelated reuse.
//
// Ordering is the same total order as the original heap — (at, seq),
// seq strictly increasing per engine — so every simulation trajectory,
// and therefore every committed golden figure, is bit-identical.

import "math/bits"

const (
	wheelShift   = 6    // log2 bucket width: 64 ns per bucket
	wheelBuckets = 4096 // must be a power of two
	wheelMask    = wheelBuckets - 1
	bucketWidth  = Time(1) << wheelShift
	wheelHorizon = Time(wheelBuckets) << wheelShift // ≈262 µs of coverage
	eventChunk   = 256                              // events allocated per slab
)

// event is a scheduled callback or process step. fn, argFn and proc
// are mutually exclusive: proc events step the process directly, so
// the proc hot path (Sleep/Yield/wake) schedules without building a
// closure, and argFn events (ScheduleArg) call a once-bound callback
// with arg.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any
	proc  *Proc
	// kind distinguishes the closure-free proc events (see procKind).
	kind      procKind
	gen       uint32 // bumped on recycle; Timers holding an older gen are stale
	cancelled bool
	next      *event // freelist link
}

// procKind is the kind of a closure-free proc event. A wake event runs
// proc.wake (the timer half of Sleep/Yield, which itself files a step
// event), a step event resumes the goroutine, an unpark event runs
// proc.Unpark (a CPU charge that retires after a delay). Keeping the
// wake and step hops separate preserves the exact event interleaving
// of the original closure-based engine, so trajectories are
// bit-identical.
type procKind uint8

const (
	procStep procKind = iota
	procWake
	procUnpark
)

// before reports whether e fires before o in the engine's total order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// bucket is one wheel slot: evs[head:] is live, sorted by (at, seq).
type bucket struct {
	evs  []*event
	head int
}

// calq is the calendar queue. The zero value is ready to use (base 0).
type calq struct {
	buckets [wheelBuckets]bucket
	occ     [wheelBuckets / 64]uint64 // per-bucket non-empty bitmap
	base    Time                      // start of buckets[baseIdx]'s window (multiple of bucketWidth)
	baseIdx int
	wheelN  int      // events currently in the wheel (cancelled included)
	far     []*event // min-heap by (at, seq): everything ≥ base+wheelHorizon
	free    *event   // recycled-event freelist
}

// alloc hands out a pooled event, growing the slab only when the
// freelist is empty (steady-state schedules never reach the allocator).
func (q *calq) alloc() *event {
	if q.free == nil {
		chunk := make([]event, eventChunk)
		for i := range chunk {
			chunk[i].next = q.free
			q.free = &chunk[i]
		}
	}
	ev := q.free
	q.free = ev.next
	ev.next = nil
	return ev
}

// recycle returns a popped event to the pool. The generation bump
// invalidates every Timer that still points here.
func (q *calq) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.proc = nil
	ev.kind = procStep
	ev.cancelled = false
	ev.next = q.free
	q.free = ev
}

// push files an event. The caller guarantees ev.at ≥ the engine clock,
// which in turn is ≥ q.base.
func (q *calq) push(ev *event) {
	if ev.at < q.base+wheelHorizon {
		q.pushWheel(ev)
		return
	}
	q.pushFar(ev)
}

func (q *calq) pushFar(ev *event) {
	q.far = append(q.far, ev)
	q.siftUp(len(q.far) - 1)
}

// settle puts the base on the bucket of the clock, now, once the loop
// has stopped. peek leaves the base on the bucket of the earliest
// event it saw, which may lie ahead of the clock: an event RunUntil
// found not yet due, or stopped timers Run skipped before the queue
// ran dry. An event scheduled after that at a time between the clock
// and such a base would land in a bucket cyclically behind baseIdx and
// fire a whole horizon late, out of order. Every event left lies at or
// after the old base, so moving the base forward only migrates far
// events, and moving it back only sends the wheel events that end up
// beyond the new horizon, all in the buckets between the new base and
// the old, to the far heap. With an empty wheel, settle is O(1).
func (q *calq) settle(now Time) {
	nb := now &^ (bucketWidth - 1)
	if nb == q.base {
		return
	}
	old := q.base
	q.base = nb
	q.baseIdx = int(nb>>wheelShift) & wheelMask
	if nb > old {
		q.migrate()
		return
	}
	steps := min(int((old-nb)>>wheelShift), wheelBuckets)
	for i := 0; i < steps && q.wheelN > 0; i++ {
		idx := (q.baseIdx + i) & wheelMask
		if q.occ[idx>>6]&(1<<(idx&63)) == 0 {
			continue
		}
		b := &q.buckets[idx]
		for _, ev := range b.evs[b.head:] {
			q.pushFar(ev)
		}
		q.wheelN -= len(b.evs) - b.head
		clear(b.evs)
		b.evs = b.evs[:0]
		b.head = 0
		q.occ[idx>>6] &^= 1 << (idx & 63)
	}
}

// pushWheel slots an event into its bucket, keeping the bucket sorted
// by (at, seq). seq grows monotonically, so an event whose time is not
// earlier than the current tail simply appends — the common case.
// Before an append that would grow the slice, the live entries move
// down over the popped ones: a bucket that never drains (remove resets
// only an empty one) then reuses its slots instead of growing by one
// per event it fires.
func (q *calq) pushWheel(ev *event) {
	idx := int(ev.at>>wheelShift) & wheelMask
	b := &q.buckets[idx]
	if b.head > 0 && len(b.evs) == cap(b.evs) {
		n := copy(b.evs, b.evs[b.head:])
		clear(b.evs[n:])
		b.evs = b.evs[:n]
		b.head = 0
	}
	b.evs = append(b.evs, ev)
	for i := len(b.evs) - 1; i > b.head && b.evs[i].before(b.evs[i-1]); i-- {
		b.evs[i], b.evs[i-1] = b.evs[i-1], b.evs[i]
	}
	q.occ[idx>>6] |= 1 << (idx & 63)
	q.wheelN++
}

// pop removes and returns the earliest live event, or nil when the
// queue is empty. Cancelled events are recycled on the way.
func (q *calq) pop() *event {
	for {
		ev := q.peek()
		if ev == nil {
			return nil
		}
		q.remove()
		if ev.cancelled {
			q.recycle(ev)
			continue
		}
		return ev
	}
}

// peek positions the wheel on the earliest event and returns it
// without removing it (nil when empty). Advancing the base and
// migrating far events are side effects that never change firing
// order, so peek is safe to call at any point.
func (q *calq) peek() *event {
	if q.wheelN == 0 {
		if len(q.far) == 0 {
			return nil
		}
		// Wheel drained: jump the base straight to the earliest far
		// event and pull everything newly covered into the wheel.
		q.base = q.far[0].at &^ (bucketWidth - 1)
		q.baseIdx = int(q.base>>wheelShift) & wheelMask
		q.migrate()
	}
	// Find the next occupied bucket at or after baseIdx. All wheel
	// events live within one horizon of base, so the first occupied
	// bucket in cyclic order holds the minimum.
	idx := q.nextOccupied(q.baseIdx)
	if steps := (idx - q.baseIdx + wheelBuckets) & wheelMask; steps > 0 {
		// The skipped buckets are empty; advancing the base over them
		// extends the horizon, so far events may now be due.
		q.base += Time(steps) << wheelShift
		q.baseIdx = idx
		q.migrate()
	}
	b := &q.buckets[idx]
	return b.evs[b.head]
}

// remove discards the event peek returned (the head of the base
// bucket).
func (q *calq) remove() {
	b := &q.buckets[q.baseIdx]
	b.evs[b.head] = nil
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		q.occ[q.baseIdx>>6] &^= 1 << (q.baseIdx & 63)
	}
	q.wheelN--
}

// nextOccupied scans the occupancy bitmap cyclically from idx for the
// first non-empty bucket. The caller guarantees the wheel is non-empty.
func (q *calq) nextOccupied(idx int) int {
	// First word: mask off bits below idx.
	w := idx >> 6
	if b := q.occ[w] >> (idx & 63); b != 0 {
		return idx + bits.TrailingZeros64(b)
	}
	for i := 1; i <= len(q.occ); i++ {
		w2 := (w + i) & (len(q.occ) - 1)
		if b := q.occ[w2]; b != 0 {
			return w2<<6 + bits.TrailingZeros64(b)
		}
	}
	panic("sim: nextOccupied on an empty wheel")
}

// migrate moves far events that the advancing base now covers into the
// wheel. They always land in the freshly vacated buckets behind the
// base, which the jump proved empty.
func (q *calq) migrate() {
	for len(q.far) > 0 && q.far[0].at < q.base+wheelHorizon {
		q.pushWheel(q.popFar())
	}
}

// popFar removes the far heap's minimum.
func (q *calq) popFar() *event {
	ev := q.far[0]
	n := len(q.far) - 1
	q.far[0] = q.far[n]
	q.far[n] = nil
	q.far = q.far[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return ev
}

func (q *calq) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.far[i].before(q.far[parent]) {
			return
		}
		q.far[i], q.far[parent] = q.far[parent], q.far[i]
		i = parent
	}
}

func (q *calq) siftDown(i int) {
	n := len(q.far)
	for {
		least := i
		if l := 2*i + 1; l < n && q.far[l].before(q.far[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q.far[r].before(q.far[least]) {
			least = r
		}
		if least == i {
			return
		}
		q.far[i], q.far[least] = q.far[least], q.far[i]
		i = least
	}
}
