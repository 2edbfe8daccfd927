package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated process: a goroutine that runs in lock-step with
// the engine. At most one Proc (or the engine itself) executes at any
// real-time moment, which keeps the whole simulation deterministic and
// lock-free.
//
// A handoff is one channel send each way: step sends on resume and
// waits on yield, block sends on yield and waits on resume. Close
// aborts a parked process the same way, by setting the engine's
// closing flag and sending on resume; the process then unwinds with
// procAbort, whether it is parked in block or has never started.
//
// A Proc advances simulated time only through the blocking helpers
// (Sleep, Signal.Wait, Park, ...). Plain Go computation inside a Proc
// takes zero simulated time.
type Proc struct {
	e        *Engine
	name     string
	id       uint64 // creation index on the engine (folded into the digest)
	resume   chan struct{}
	yield    chan struct{}
	woken    bool       // a wake event is already scheduled
	parked   bool       // waiting in Park for Unpark
	finished bool       // goroutine has exited; step becomes a no-op
	daemon   bool       // service loop: excluded from deadlock accounting
	panicked *ProcPanic // the body's panic, re-raised by step
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
// immediately; the process body runs when the engine reaches it.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		e:      e,
		name:   name,
		id:     e.nprocs,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	e.nprocs++
	e.procs[p] = struct{}{}
	go func() {
		defer p.exit()
		<-p.resume
		if e.closing {
			panic(procAbort{})
		}
		fn(p)
	}()
	e.scheduleProc(0, p, procStep)
	return p
}

// exit retires the process goroutine: it stashes a panic for step to
// re-raise, drops the process from the engine and hands control back
// for the last time.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		if _, ok := r.(procAbort); !ok {
			p.panicked = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
	}
	delete(p.e.procs, p)
	if p.daemon {
		p.e.daemons--
	}
	p.finished = true
	p.yield <- struct{}{}
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

// step transfers control to the process goroutine and waits for it to
// block or finish. Called only from engine context. A step on a
// finished process is a no-op (stale wake events are harmless). If the
// body panicked, step re-raises the panic as a *ProcPanic.
func (p *Proc) step() {
	if p.finished {
		return
	}
	if p.e.dig != nil {
		p.e.digestResume(p)
	}
	p.resume <- struct{}{}
	<-p.yield
	if pp := p.panicked; pp != nil {
		p.panicked = nil
		panic(pp)
	}
}

// abort unwinds the process goroutine. Called from Engine.Close, after
// it sets closing, and always while the process is parked in block or
// not yet started.
func (p *Proc) abort() {
	if p.finished {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
}

// block suspends the process until something calls wake. Called only
// from process context.
func (p *Proc) block() {
	p.yield <- struct{}{}
	<-p.resume
	if p.e.closing {
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
