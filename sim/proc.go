package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated process: a body that runs on a goroutine in
// lock-step with the engine. At most one goroutine (the caller of Run
// or a single Proc) executes at any real-time moment, which keeps the
// whole simulation deterministic and lock-free.
//
// The goroutine that holds the baton runs the event loop. A proc that
// blocks keeps the baton and fires events itself: callbacks, wake and
// unpark events run inline, a step of its own process just returns
// from block (no goroutine switch), and a step of another proc sends
// that proc's resume channel and waits on its own (one switch). When
// no event is left at or before the bound, the baton goes back to Run
// over the engine's channel.
//
// Goroutines are pooled per engine. When a body is over, its goroutine
// still holds the baton and goes on running the loop; once it hands
// the baton on, it parks on the engine's free list and Go gives it the
// next proc. Each Go makes a fresh *Proc, so a stale step event of a
// finished proc still does nothing. Close aborts a parked process by
// setting the engine's closing flag and resuming it; the process then
// unwinds with procAbort, whether it is parked in block or has never
// started.
//
// A Proc advances simulated time only through the blocking helpers
// (Sleep, Signal.Wait, Park, ...). Plain Go computation inside a Proc
// takes zero simulated time.
type Proc struct {
	e        *Engine
	name     string
	id       uint64        // creation index on the engine (folded into the digest)
	body     func(p *Proc) // nil once the body has run
	resume   chan *Proc    // the goroutine's channel: each receive runs this proc
	woken    bool          // a wake event is already scheduled
	parked   bool          // waiting in Park for Unpark
	finished bool          // the body is over; step events become no-ops
	daemon   bool          // service loop: excluded from deadlock accounting
}

// procAbort is the panic value used to unwind an aborted Proc.
type procAbort struct{}

// ProcPanic is what the engine re-raises when a process body panics.
// The panic crosses from the process goroutine to the goroutine that
// drives the engine, so it reaches the caller of Engine.Run (and a
// runner job's panic capture) instead of killing the program.
type ProcPanic struct {
	// Proc is the name of the panicking process.
	Proc string
	// Value is the value passed to panic.
	Value any
	// Stack is the process goroutine's stack at the panic.
	Stack []byte
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", pp.Proc, pp.Value)
}

// Go starts fn as a new simulated process. fn begins executing at the
// current simulated time (as a scheduled event). The call returns
// immediately; the process body runs when the engine reaches it, on a
// pooled goroutine when one is parked.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, id: e.nprocs, body: fn}
	if n := len(e.idle); n > 0 {
		p.resume = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		p.resume = make(chan *Proc)
		go e.work(p.resume)
	}
	e.nprocs++
	e.procs[p] = struct{}{}
	e.scheduleProc(0, p, procStep)
	return p
}

// work is the body of a pooled goroutine. Each receive on resume
// starts the proc Go gave it. When that body is over the goroutine
// still holds the baton: it runs the loop until another goroutine must
// run, parks itself on the free list and hands the baton on. A closed
// resume retires the goroutine.
func (e *Engine) work(resume chan *Proc) {
	for p := range resume {
		next, ok := p.run()
		if !ok {
			return
		}
		// Park only now: a Go fired by the loop above must not be
		// given this goroutine while it still runs the loop.
		e.idle = append(e.idle, resume)
		e.pass(next)
	}
}

// run runs the body and retires the process, then keeps the loop
// going on this goroutine. It returns the proc the loop reached next
// (nil: the baton goes back to Run), and false when the goroutine must
// not be pooled; run has then passed the baton itself.
func (p *Proc) run() (next *Proc, ok bool) {
	e := p.e
	returned := false
	defer func() {
		pp := p.retire(recover())
		switch {
		case e.closing:
			// Close waits for the unwind; a panic on the way is dropped.
			e.pass(nil)
			next, ok = nil, false
		case pp != nil:
			e.caught = pp
			next, ok = nil, true
		case returned:
			next, ok = e.nextGuarded(), true
		default:
			// runtime.Goexit (t.FailNow in a test's process) ends the
			// goroutine: pass the baton on before it goes.
			e.pass(e.nextGuarded())
			next, ok = nil, false
		}
	}()
	if !e.closing {
		p.body(p)
	}
	returned = true
	return nil, true
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

// Daemon reports whether the process was started with GoDaemon.
func (p *Proc) Daemon() bool { return p.daemon }

// block suspends the process until its next step event, running the
// event loop on this goroutine meanwhile. Called only from process
// context. A process unwinding from Close never runs the loop.
func (p *Proc) block() {
	e := p.e
	if !e.closing {
		next := e.nextGuarded()
		if next == p {
			return
		}
		e.pass(next)
		<-p.resume
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

// Waiters reports the number of processes currently waiting.
func (s *Signal) Waiters() int { return len(s.waiters) }
