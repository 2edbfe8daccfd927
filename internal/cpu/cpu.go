// Package cpu models processor cores as serial, non-preemptive work
// queues with two priority levels (softirq work runs ahead of process
// context) and per-category busy-time accounting.
//
// The accounting categories mirror Figure 9 of the paper and extend
// it for the availability evaluation: application compute, user-library
// time (polling, matching, eager copies), driver command-processing
// time (system calls, pinning, one-copy local transfers), bottom-half
// receive time (split into protocol processing and data copying so the
// copy-offload effect is directly visible), and I/OAT descriptor
// submission (the doorbell + per-descriptor setup the CPU still pays
// when the engine moves the bytes).
//
// System.Snapshot turns the ledgers into a deterministic Stats value —
// per-core busy time per category plus the idle remainder of the
// accounting window — which the public openmx and mxoe stacks re-export
// as their CPUStats surface.
package cpu

import (
	"fmt"
	"strings"

	"omxsim/platform"
	"omxsim/sim"
)

// Category classifies busy time for accounting.
type Category int

// Accounting categories.
const (
	UserLib    Category = iota // user-space library work (polling, matching, eager copies)
	DriverCmd                  // driver work in syscall context (incl. pinning, local one-copy)
	BHProc                     // bottom-half protocol processing (interrupt/NAPI context)
	BHCopy                     // bottom-half data copies (memcpy or I/OAT completion wait)
	IOATSubmit                 // I/OAT descriptor submission (doorbell + per-descriptor setup)
	AppCompute                 // application computation (reductions, injected compute)
	Other                      // anything else (MX firmware emulation, benchmarks)
	numCategories
)

// NumCategories is the number of accounting categories (the length of
// a CoreStats.Busy ledger).
const NumCategories = int(numCategories)

// Categories returns every accounting category in ledger order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

var categoryNames = [...]string{"user-lib", "driver", "bh-proc", "bh-copy", "ioat-submit", "compute", "other"}

func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("cat(%d)", int(c))
	}
	return categoryNames[c]
}

// Priority of queued work. Softirq-level work preempts (in queue order,
// not mid-task) process-level work.
type priority int

const (
	prioSoftirq priority = iota
	prioProcess
)

func priorityOf(c Category) priority {
	switch c {
	case BHProc, BHCopy, IOATSubmit:
		return prioSoftirq
	default:
		return prioProcess
	}
}

// task is one unit of queued work. Tasks are pooled per core: finish
// returns each one to its core's free list once it retires, so the
// steady-state CPU charge allocates nothing.
type task struct {
	c   *Core
	cat Category
	dur sim.Duration // fixed duration (dyn == nil)
	fn  func()       // completion callback
	dyn func(finish func(extra sim.Duration))
	p   *sim.Proc // RunOn/RunOnDyn caller, unparked when the work completes
	// done is the finish callback handed to dyn: t.finishDyn, bound
	// the first time the task runs dynamic work.
	done     func(extra sim.Duration)
	finished bool  // dyn: done was called since the last dispatch
	next     *task // free-list link
}

// Core is one processor core: a serial resource executing tasks.
type Core struct {
	sys     *System
	ID      int
	busy    bool
	queues  [2][]*task
	busyNs  [numCategories]sim.Duration
	totalNs sim.Duration
	started sim.Time // start of current task, for dyn accounting
	cur     *task    // the executing task (a core runs one at a time)
	free    *task    // retired tasks, reused by newTask
}

// System is the set of cores of one host.
type System struct {
	E     *sim.Engine
	P     *platform.Platform
	Cores []*Core

	// resetAt is the start of the current accounting window (the last
	// ResetAccounting call; zero for a fresh system).
	resetAt sim.Time
}

// NewSystem builds the core set described by p. The cores are one
// slab, so a host's cores cost one allocation.
func NewSystem(e *sim.Engine, p *platform.Platform) *System {
	n := p.NumCores()
	s := &System{E: e, P: p, Cores: make([]*Core, n)}
	slab := make([]Core, n)
	for i := range slab {
		slab[i] = Core{sys: s, ID: i}
		s.Cores[i] = &slab[i]
	}
	return s
}

// Core returns core i.
func (s *System) Core(i int) *Core { return s.Cores[i] }

// ResetAccounting zeroes all busy counters on all cores and starts a
// new accounting window at the current simulated time.
func (s *System) ResetAccounting() {
	for _, c := range s.Cores {
		c.busyNs = [numCategories]sim.Duration{}
		c.totalNs = 0
	}
	s.resetAt = s.E.Now()
}

// BusyByCategory sums busy nanoseconds per category across all cores.
func (s *System) BusyByCategory() map[Category]sim.Duration {
	out := make(map[Category]sim.Duration)
	for _, c := range s.Cores {
		for cat := Category(0); cat < numCategories; cat++ {
			if c.busyNs[cat] != 0 {
				out[cat] += c.busyNs[cat]
			}
		}
	}
	return out
}

// TotalBusy sums busy nanoseconds across all cores.
func (s *System) TotalBusy() sim.Duration {
	var t sim.Duration
	for _, c := range s.Cores {
		t += c.totalNs
	}
	return t
}

// CoreStats is one core's ledger inside a Stats snapshot: busy time
// per category plus the idle remainder of the accounting window.
type CoreStats struct {
	Core int
	// Busy is indexed by Category (ledger order, see Categories).
	Busy [NumCategories]sim.Duration
	// Idle is the window time the core spent executing nothing.
	Idle sim.Duration
}

// TotalBusy sums the core's busy time across categories.
func (c CoreStats) TotalBusy() sim.Duration {
	var t sim.Duration
	for _, d := range c.Busy {
		t += d
	}
	return t
}

// Stats is a deterministic snapshot of per-core CPU accounting over
// one window (since the last ResetAccounting). Cores appear in
// ascending ID order and categories in ledger order, so two snapshots
// of identical runs compare equal with reflect.DeepEqual and render to
// identical text.
type Stats struct {
	// Window is the wall (virtual) time covered by the snapshot.
	Window sim.Duration
	Cores  []CoreStats
}

// Snapshot captures the current accounting window. Work still
// executing on a core is not yet attributed (ledgers are updated when
// a task retires), so snapshots are normally taken at quiesce points —
// after Cluster.Run or between benchmark phases.
func (s *System) Snapshot() Stats {
	st := Stats{Window: s.E.Now() - s.resetAt}
	for _, c := range s.Cores {
		cs := CoreStats{Core: c.ID, Busy: c.busyNs}
		if idle := st.Window - c.totalNs; idle > 0 {
			cs.Idle = idle
		}
		st.Cores = append(st.Cores, cs)
	}
	return st
}

// Busy sums busy time for the given categories across all cores (all
// categories when none are given).
func (st Stats) Busy(cats ...Category) sim.Duration {
	var t sim.Duration
	for _, c := range st.Cores {
		if len(cats) == 0 {
			t += c.TotalBusy()
			continue
		}
		for _, cat := range cats {
			t += c.Busy[cat]
		}
	}
	return t
}

// BusyPct reports busy time for the given categories as a percentage
// of one core's window (so a host with two saturated cores reports
// 200 %). Zero when the window is empty.
func (st Stats) BusyPct(cats ...Category) float64 {
	if st.Window <= 0 {
		return 0
	}
	return float64(st.Busy(cats...)) / float64(st.Window) * 100
}

// Render formats the snapshot as an aligned text table: one row per
// core that was busy at all, one column per category, a totals row at
// the bottom. The output is deterministic.
func (st Stats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "core")
	for _, cat := range Categories() {
		fmt.Fprintf(&b, " %12s", cat.String())
	}
	fmt.Fprintf(&b, " %12s\n", "idle")
	us := func(d sim.Duration) string { return fmt.Sprintf("%.1f", sim.Time(d).Micros()) }
	var idle sim.Duration
	for _, c := range st.Cores {
		idle += c.Idle
		if c.TotalBusy() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-6d", c.Core)
		for _, cat := range Categories() {
			fmt.Fprintf(&b, " %12s", us(c.Busy[cat]))
		}
		fmt.Fprintf(&b, " %12s\n", us(c.Idle))
	}
	fmt.Fprintf(&b, "%-6s", "total")
	for _, cat := range Categories() {
		fmt.Fprintf(&b, " %12s", us(st.Busy(cat)))
	}
	fmt.Fprintf(&b, " %12s\n", us(idle))
	return b.String()
}

// Busy reports whether the core is currently executing a task.
func (c *Core) Busy() bool { return c.busy }

// QueueLen reports the number of queued (not yet started) tasks.
func (c *Core) QueueLen() int { return len(c.queues[0]) + len(c.queues[1]) }

// BusyNs reports accumulated busy time for one category.
func (c *Core) BusyNs(cat Category) sim.Duration { return c.busyNs[cat] }

// Exec queues work of a fixed duration on the core. fn (may be nil)
// runs in engine context when the work completes. Work of softirq
// priority runs before process-priority work but never interrupts a
// task in progress.
func (c *Core) Exec(cat Category, d sim.Duration, fn func()) {
	c.enqueue(c.fixedTask(cat, d, fn))
}

// ExecDyn queues work whose duration is not known in advance: when the
// task reaches the head of the queue, run is invoked (in engine
// context) and the core stays busy until run calls finish. The elapsed
// wall time plus extra is accounted to cat. This models busy-polling a
// completion whose arrival time depends on other simulated hardware.
func (c *Core) ExecDyn(cat Category, run func(finish func(extra sim.Duration))) {
	c.enqueue(c.dynTask(cat, run))
}

// newTask takes a task from the core's free list, or builds one.
func (c *Core) newTask(cat Category) *task {
	t := c.free
	if t == nil {
		t = &task{c: c}
	} else {
		c.free = t.next
		t.next = nil
	}
	t.cat = cat
	return t
}

// dynTask is newTask for dynamic work.
func (c *Core) dynTask(cat Category, run func(finish func(extra sim.Duration))) *task {
	t := c.newTask(cat)
	t.dyn = run
	if t.done == nil {
		t.done = t.finishDyn
	}
	return t
}

// fixedTask is newTask for fixed-duration work.
func (c *Core) fixedTask(cat Category, d sim.Duration, fn func()) *task {
	if d < 0 {
		panic(fmt.Sprintf("cpu: negative duration %d", d))
	}
	t := c.newTask(cat)
	t.dur = d
	t.fn = fn
	return t
}

func (c *Core) enqueue(t *task) {
	p := priorityOf(t.cat)
	c.queues[p] = append(c.queues[p], t)
	if !c.busy {
		c.dispatch()
	}
}

// dispatch starts the next queued task, if any.
func (c *Core) dispatch() {
	var t *task
	for p := range c.queues {
		if len(c.queues[p]) > 0 {
			t = c.queues[p][0]
			copy(c.queues[p], c.queues[p][1:])
			c.queues[p][len(c.queues[p])-1] = nil
			c.queues[p] = c.queues[p][:len(c.queues[p])-1]
			break
		}
	}
	if t == nil {
		return
	}
	c.busy = true
	c.cur = t
	c.started = c.sys.E.Now()
	if t.dyn != nil {
		t.finished = false
		t.dyn(t.done)
		return
	}
	c.sys.E.ScheduleArg(t.dur, coreFinish, c)
}

// finishDyn is the finish callback of a dynamic task: the core retires
// the task after extra more busy time. A RunOnDyn caller is woken by
// an event of its own, filed for the same instant but strictly after
// the core retires the task.
func (t *task) finishDyn(extra sim.Duration) {
	if t.finished {
		panic("cpu: finish called twice")
	}
	t.finished = true
	c, p := t.c, t.p
	t.p = nil
	if extra > 0 {
		c.sys.E.ScheduleArg(extra, coreFinish, c)
	} else {
		c.finish()
	}
	if p != nil {
		p.UnparkAfter(extra)
	}
}

// coreFinish is the event every task retires through: a static
// function with the core as its argument, so scheduling it builds
// nothing.
func coreFinish(arg any) { arg.(*Core).finish() }

// finish retires the current task: it accounts the busy time, runs the
// completion callback, unparks a RunOn caller, recycles the task and
// starts the next one.
func (c *Core) finish() {
	t := c.cur
	elapsed := c.sys.E.Now() - c.started
	c.busyNs[t.cat] += elapsed
	c.totalNs += elapsed
	c.busy = false
	c.cur = nil
	if t.fn != nil {
		t.fn()
	}
	if t.p != nil {
		t.p.Unpark()
	}
	t.fn, t.dyn, t.p = nil, nil, nil
	t.next = c.free
	c.free = t
	if !c.busy { // fn may have queued and started new work synchronously
		c.dispatch()
	}
}

// RunOn executes fixed-duration work on the core from process context:
// the calling Proc parks until the work completes (including any queue
// wait). This is how user processes spend CPU time.
func (c *Core) RunOn(p *sim.Proc, cat Category, d sim.Duration) {
	t := c.fixedTask(cat, d, nil)
	t.p = p
	c.enqueue(t)
	p.Park()
}

// RunOnDyn executes dynamic-duration work (see ExecDyn) from process
// context, parking the calling Proc until it completes. It models a
// process busy-polling some hardware condition: the core is occupied
// (and accounted) for the full duration.
func (c *Core) RunOnDyn(p *sim.Proc, cat Category, run func(finish func(extra sim.Duration))) {
	t := c.dynTask(cat, run)
	t.p = p
	c.enqueue(t)
	p.Park()
}
