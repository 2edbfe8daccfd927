package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated process: a body that runs on a coroutine in
// lock-step with the engine. At most one goroutine (the caller of Run
// or a single Proc's coroutine) executes at any real-time moment,
// which keeps the whole simulation deterministic and lock-free.
//
// Run's goroutine drives the coroutines: it runs the event loop until
// a step event of a proc comes up and resumes that proc's coroutine.
// A proc that blocks runs the loop itself: callbacks, wake and unpark
// events fire inline, a step of its own process just returns from
// block (no switch), and a step of another proc is yielded to the
// driver, which resumes that proc (two coroutine switches). When no
// event is left at or before the bound, the proc yields nil and Run
// goes on.
//
// Coroutines are pooled per engine and bound at a proc's first resume.
// When a body is over, its coroutine goes on running the loop; once
// the loop reaches another proc, it parks on the engine's free list
// and the driver binds the next fresh proc to it. Each Go makes a
// fresh *Proc, so a stale step event of a finished proc still does
// nothing. Close aborts a parked process by setting the engine's
// closing flag and stopping its coroutine; the process then unwinds
// with procAbort. A process that never started has no coroutine, and
// Close retires it without running it.
//
// A Proc advances simulated time only through the blocking helpers
// (Sleep, Signal.Wait, Park, ...). Plain Go computation inside a Proc
// takes zero simulated time.
type Proc struct {
	e        *Engine
	name     string
	id       uint64        // creation index on the engine (folded into the digest)
	body     func(p *Proc) // nil once the body has run
	co       *coro         // the coroutine it runs on; nil until its first resume
	woken    bool          // a wake event is already scheduled
	parked   bool          // waiting in Park for Unpark
	finished bool          // the body is over; step events become no-ops
	daemon   bool          // service loop: excluded from deadlock accounting
}

// procAbort is the panic value used to unwind an aborted Proc.
type procAbort struct{}

// ProcPanic is what the engine re-raises when a process body panics.
// The panic crosses from the process coroutine to the goroutine that
// drives the engine, so it reaches the caller of Engine.Run (and a
// runner job's panic capture) instead of killing the program.
type ProcPanic struct {
	// Proc is the name of the panicking process.
	Proc string
	// Value is the value passed to panic.
	Value any
	// Stack is the process coroutine's stack at the panic.
	Stack []byte
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", pp.Proc, pp.Value)
}

// Go starts fn as a new simulated process. fn begins executing at the
// current simulated time (as a scheduled event). The call returns
// immediately; the process body runs when the engine reaches it, on a
// pooled coroutine when one is parked.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, id: e.nprocs, body: fn}
	e.nprocs++
	e.procs[p] = struct{}{}
	e.scheduleProc(0, p, procStep)
	return p
}

// run runs the body and retires the process, then keeps the loop going
// on its coroutine. It returns the proc the loop reached next (nil:
// back to the driver). A runtime.Goexit in the body, or in a callback
// the loop fires, never returns here: iter.Pull carries it on to the
// driver.
func (p *Proc) run() *Proc {
	pp := p.call()
	e := p.e
	switch {
	case e.closing:
		// Close waits for the unwind; a panic on the way is dropped.
		return nil
	case pp != nil:
		e.caught = pp
		return nil
	}
	return e.nextGuarded()
}

// call runs the body and retires the process, turning a panic of the
// body into a *ProcPanic.
func (p *Proc) call() (pp *ProcPanic) {
	defer func() { pp = p.retire(recover()) }()
	p.body(p)
	return nil
}

// retire drops the finished process from the engine and turns a panic
// of its body into a *ProcPanic (nil when there was none, or when it
// was the abort).
func (p *Proc) retire(r any) *ProcPanic {
	delete(p.e.procs, p)
	if p.daemon {
		p.e.daemons--
	}
	p.finished = true
	p.body = nil
	if _, abort := r.(procAbort); r == nil || abort {
		return nil
	}
	return &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
}

// GoDaemon starts fn as a daemon process: a service loop (a NIC bottom
// half, a background poller) that legitimately never exits. Daemons
// are excluded from Engine.Run's blocked-process count, so a drained
// simulation with only daemons parked reports a clean run rather than
// a deadlock.
func (e *Engine) GoDaemon(name string, fn func(p *Proc)) *Proc {
	p := e.Go(name, fn)
	p.daemon = true
	e.daemons++
	return p
}

// block suspends the process until its next step event, running the
// event loop on its coroutine meanwhile. Called only from process
// context. A process unwinding from Close never runs the loop.
func (p *Proc) block() {
	e := p.e
	if !e.closing {
		next := e.nextGuarded()
		if next == p {
			return
		}
		// False only when Close stops the coroutine; closing says so.
		p.co.yield(next)
	}
	if e.closing {
		panic(procAbort{})
	}
}

// Park suspends the process until Unpark. It is a completion slot the
// process owns, for a wait with exactly one waker that holds the
// process (a CPU charge waiting for its task to retire): no Signal,
// no condition closure. A wake for any other reason re-parks. Called
// only from process context.
func (p *Proc) Park() {
	p.parked = true
	for p.parked {
		p.block()
	}
}

// Unpark ends a Park: it clears the slot and schedules the process to
// continue at the current simulated time, filing the same step event a
// Signal.Broadcast to a lone waiter would. It does nothing when the
// process is not parked. Safe to call from engine context or from
// another process.
func (p *Proc) Unpark() {
	if !p.parked {
		return
	}
	p.parked = false
	p.wake()
}

// UnparkAfter files an event that calls Unpark after d: the
// closure-free equivalent of Schedule(d, p.Unpark).
func (p *Proc) UnparkAfter(d Duration) { p.e.scheduleProc(d, p, procUnpark) }

// wake schedules the process to continue at the current simulated time.
// It is idempotent until the process actually runs. Safe to call from
// engine context (event callbacks) or from another process.
//
// wake is a low-level primitive: calling it on a process that is
// blocked for an unrelated reason would end that wait early. Shared
// abstractions must use Signal (whose waiters re-check conditions)
// rather than holding raw *Proc handles.
func (p *Proc) wake() {
	if p.woken {
		return
	}
	p.woken = true
	p.e.scheduleProc(0, p, procStep)
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.e.now }

// Sleep suspends the process for d simulated nanoseconds.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	p.e.scheduleProc(d, p, procWake)
	p.block()
}

// Yield gives other events scheduled at the current instant a chance to
// run before the process continues.
func (p *Proc) Yield() {
	p.e.scheduleProc(0, p, procWake)
	p.block()
}

// WaitFor repeatedly waits on s until cond() is true. It returns
// immediately (without blocking) if the condition already holds.
func (p *Proc) WaitFor(s *Signal, cond func() bool) {
	for !cond() {
		s.Wait(p)
	}
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Signal is a broadcast wakeup primitive, analogous to a condition
// variable: processes Wait on it, and Broadcast wakes all current
// waiters. There is no notion of a "missed" signal; callers are
// expected to re-check their condition in a loop (or use WaitFor).
type Signal struct {
	waiters []*Proc
	spare   []*Proc // retired waiter slice, reused to keep Wait allocation-free
}

// NewSignal returns a new signal. The zero value is also usable.
func NewSignal() *Signal { return &Signal{} }

// Wait suspends p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.block()
}

// Broadcast wakes every process currently waiting on s. Waiters are
// drained into a spare buffer first, so processes that Wait again
// while the broadcast runs land on a fresh list (and the two backing
// arrays alternate instead of reallocating every cycle).
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = s.spare[:0]
	for _, p := range ws {
		p.wake()
	}
	for i := range ws {
		ws[i] = nil
	}
	s.spare = ws[:0]
}
