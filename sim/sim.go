// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is a simulated nanosecond counter. Events scheduled for the same
// instant fire in scheduling order (ties broken by a monotonically
// increasing sequence number), so a given program always produces the
// same trajectory.
//
// Two programming styles are supported and freely mixed:
//
//   - callback style: Schedule(delay, fn) / At(t, fn), used by the
//     hardware models (NICs, DMA engines, timers);
//   - process style: Go(name, fn) starts a coroutine-like Proc that can
//     Sleep, wait on Signals, and occupy simulated CPU cores.
//
// One event loop pops and fires the events, and exactly one goroutine
// runs it at any moment: the caller of Run or RunUntil, or the
// coroutine of a Proc blocked in Sleep, Wait or Park, which fires
// events itself until a step comes up. Each Proc body runs on a pooled
// coroutine made with iter.Pull (so the package needs Go 1.23), and
// Run's goroutine is the only one that resumes them. So no locking is
// needed anywhere in the simulation, a proc that resumes itself costs
// no switch at all, and a step of another proc costs two coroutine
// switches (see proc.go).
//
// The event queue is a calendar queue (timing wheel plus a far-future
// heap, see calq.go) with pooled event records: the steady-state
// schedule→fire→recycle cycle allocates nothing, which is what lets
// 512-rank fat-tree worlds run inside CI. ScheduleArg carries a
// once-bound callback and its argument in the event record, so the
// per-frame hops of the hardware models build no closure either. When
// Run or RunUntil returns, the wheel's base sits on the clock's
// bucket, so events scheduled between two runs file in time order. Service loops that
// legitimately never exit (NIC bottom halves) are started with GoDaemon
// and excluded from deadlock accounting by flag rather than by name.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in simulated time, in nanoseconds since Run started.
type Time int64

// Duration is a span of simulated time, in nanoseconds.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Timer is a handle to a scheduled event that can be cancelled. The
// zero value is a stale handle: Stop and Pending report false. Timers
// are values (not pointers) so the schedule fast path allocates
// nothing; copy them freely.
type Timer struct {
	e   *Engine
	ev  *event
	gen uint32
}

// Pending reports whether the event is still scheduled: not yet fired,
// not cancelled, and the handle not stale.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// Stop cancels the timer. It reports whether the timer was still
// pending (i.e. Stop prevented the callback from running). Stopping a
// fired, already-stopped or zero Timer is a safe no-op: the event pool
// bumps a generation counter on recycle, so a stale handle can never
// cancel an unrelated event that reused the slot.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	t.ev.cancelled = true
	t.e.live--
	t.e.q.cancel(t.ev)
	return true
}

// Engine is a discrete-event simulation engine.
// The zero value is not usable; call New.
type Engine struct {
	now     Time
	seq     uint64
	q       calq
	live    int // scheduled, non-cancelled events
	procs   map[*Proc]struct{}
	daemons int    // live procs flagged as daemons
	nprocs  uint64 // procs created so far; the next proc's creation index
	closing bool
	dig     *digest // event-order digest; nil when off (see digest.go)

	until  Time    // the loop's bound: RunUntil's t, or maxTime for Run
	caught any     // a panic caught on a proc coroutine, re-raised by Run
	idle   []*coro // parked pooled coroutines, each waiting for a fresh proc
}

// maxTime is the bound of Run's loop: no event lies beyond it.
const maxTime = Time(1<<63 - 1)

// New returns a ready-to-use engine at time zero.
func New() *Engine {
	e := &Engine{procs: make(map[*Proc]struct{})}
	collectDigest(e)
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run after delay. A negative delay is
// treated as zero. The returned Timer may be used to cancel it.
func (e *Engine) Schedule(delay Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t (clamped to now).
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.push(t)
	ev.fn = fn
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// ScheduleArg arranges for fn(arg) to run after delay, exactly as
// Schedule(delay, func() { fn(arg) }) would, without building that
// closure: the event record carries fn and arg. Hardware models bind
// fn once (a per-device method value) and pass the frame or request
// as arg, so a per-frame hop allocates nothing (a pointer in an
// interface is stored without boxing).
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) Timer {
	if delay < 0 {
		delay = 0
	}
	ev := e.push(e.now + delay)
	ev.argFn = fn
	ev.arg = arg
	return Timer{e: e, ev: ev, gen: ev.gen}
}

// scheduleProc files a closure-free process event of the given kind
// after delay. No closure is built, so the Sleep/Yield/wake/Unpark hot
// path is allocation-free.
func (e *Engine) scheduleProc(delay Duration, p *Proc, kind procKind) {
	if delay < 0 {
		delay = 0
	}
	ev := e.push(e.now + delay)
	ev.proc = p
	ev.kind = kind
}

// push allocates a pooled event at absolute time t (clamped to now)
// and files it in the calendar queue.
func (e *Engine) push(t Time) *event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.q.alloc()
	ev.at = t
	ev.seq = e.seq
	e.q.push(ev)
	e.live++
	return ev
}

// Pending reports the number of live (non-cancelled) scheduled events.
func (e *Engine) Pending() int { return e.live }

// next runs the event loop on the calling goroutine (the driver, or
// the coroutine of the proc that blocked last) until a step event of a
// live proc comes up, and returns that proc. It returns nil when no
// event is left at or before the bound. Each event record is returned
// to the pool before it fires, so a callback that reschedules at once
// reuses the hot slot.
func (e *Engine) next() *Proc {
	for {
		ev := e.q.pop()
		if ev == nil {
			return nil
		}
		if ev.at > e.until {
			// Not due yet: put it back. Re-pushing keeps its (at, seq)
			// key, so ordering is untouched.
			e.q.push(ev)
			return nil
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: event at %v fires with the clock at %v", ev.at, e.now))
		}
		e.now = ev.at
		fn, argFn, arg, p, kind := ev.fn, ev.argFn, ev.arg, ev.proc, ev.kind
		e.q.recycle(ev)
		e.live--
		switch {
		case argFn != nil:
			argFn(arg)
		case p == nil:
			fn()
		case kind == procWake:
			p.wake()
		case kind == procUnpark:
			p.Unpark()
		default:
			p.woken = false
			// A step of a finished proc is stale and does nothing.
			if !p.finished {
				if e.dig != nil {
					e.digestResume(p)
				}
				return p
			}
		}
	}
}

// nextGuarded is next for a proc coroutine. A callback that panics
// there must not unwind the proc's body, so the panic is caught and
// stored for Run to re-raise, and the coroutine yields nil.
func (e *Engine) nextGuarded() (p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.caught = r
			p = nil
		}
	}()
	return e.next()
}

// drive runs the loop up to until on the calling goroutine, resuming
// each proc it reaches. A resumed proc's coroutine returns the proc
// its loop reached next. drive stops when no event is left at or
// before until, or with a panic caught on a proc coroutine, which it
// re-raises.
func (e *Engine) drive(until Time) {
	e.until = until
	for p := e.next(); p != nil; {
		p = e.resume(p)
	}
	if r := e.caught; r != nil {
		e.caught = nil
		panic(r)
	}
}

// Run executes events until none remain, then returns the number of
// processes still blocked, daemons excluded (0 means a clean fully
// drained run; nonzero usually indicates a protocol deadlock in the
// simulated program). When no process is left at all, the pooled
// coroutines are released, so a finished engine holds no goroutine.
func (e *Engine) Run() int {
	e.drive(maxTime)
	e.q.settle(e.now)
	if len(e.procs) == 0 {
		e.release()
	}
	return len(e.procs) - e.daemons
}

// RunUntil executes events up to and including time t, leaving later
// events pending. The clock is left at t.
func (e *Engine) RunUntil(t Time) {
	e.drive(t)
	if e.now < t {
		e.now = t
	}
	e.q.settle(e.now)
}

// BlockedProcs returns the names of processes that have started but not
// finished, sorted for deterministic reporting. Daemons are included
// (they are blocked by design); Run's return value excludes them.
func (e *Engine) BlockedProcs() []string {
	var names []string
	for p := range e.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// Daemons reports the number of live daemon processes (service loops
// started with GoDaemon that legitimately never exit).
func (e *Engine) Daemons() int { return e.daemons }

// Close aborts all live processes so their coroutines exit: it sets
// closing and stops each started process's coroutine, which unwinds
// the process instead of continuing, retires the processes that never
// started, then releases the pooled coroutines. The engine must not be
// used afterwards. It is safe to call on a fully drained engine (it is
// then a no-op) and is intended for tests and for tearing down
// deadlocked simulations.
func (e *Engine) Close() {
	e.closing = true
	for p := range e.procs {
		if p.co == nil {
			p.retire(nil)
		} else {
			p.co.stop()
		}
	}
	e.procs = map[*Proc]struct{}{}
	e.daemons = 0
	e.release()
}
