// Package bus implements a fluid-flow bandwidth arbiter: a shared
// resource of fixed byte rate over which concurrent flows progress at
// max-min fair shares, each optionally capped by its own rate limit.
//
// It models shared bandwidth domains — in this repository, the I/OAT
// DMA engine's aggregate throughput across its four channels — without
// simulating individual cache lines. Whenever the set of active flows
// changes, progress is banked at the old rates, shares are recomputed,
// and the earliest completion is (re)scheduled.
//
// The arbiter allocates nothing in steady state: Begin runs a flow the
// caller owns (an I/OAT channel embeds the one flow of the descriptor
// it is processing), the progressive filling and the completion sweep
// reuse scratch slices, and the completion event and a flow's onDone
// are static functions that take their receiver as the event
// argument. Flows are filtered in place with their order kept, so
// every floating-point sum runs in the same order.
package bus

import (
	"fmt"

	"omxsim/sim"
)

// Flow is one active transfer on the arbiter.
type Flow struct {
	arb       *Arbiter
	remaining float64 // bytes left
	limit     float64 // own rate cap (bytes/ns), 0 = unlimited
	rate      float64 // current allocated rate
	onDone    func(any)
	arg       any // onDone's argument
	done      bool
}

// Remaining reports the bytes this flow still has to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate reports the currently allocated rate in bytes/ns.
func (f *Flow) Rate() float64 { return f.rate }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Arbiter is a shared bandwidth domain. Create with New.
type Arbiter struct {
	e        *sim.Engine
	capacity float64 // total bytes/ns, 0 = unlimited
	flows    []*Flow
	lastAt   sim.Time
	timer    sim.Timer
	moved    float64 // total bytes delivered (for conservation checks)

	// Scratch reused by recompute and complete; finished is nil while
	// complete runs its callbacks, so a nested complete cannot clobber
	// the list being walked.
	unassigned []*Flow
	finished   []*Flow
}

// New returns an arbiter with the given total capacity in bytes/ns.
// A capacity of 0 means unlimited (flows only see their own caps).
func New(e *sim.Engine, capacity float64) *Arbiter {
	return &Arbiter{e: e, capacity: capacity, lastAt: e.Now()}
}

// TotalMoved reports the total bytes delivered by completed and partial
// flows so far (conservation diagnostics).
func (a *Arbiter) TotalMoved() float64 { return a.moved }

// Active reports the number of in-flight flows.
func (a *Arbiter) Active() int { return len(a.flows) }

// Start begins a new flow of the given size. limit caps this flow's own
// rate (0 = no cap beyond the arbiter's capacity). onDone runs, in
// engine context, at the simulated instant the last byte transfers. A
// zero-byte flow completes after one scheduling round trip.
func (a *Arbiter) Start(bytes float64, limit float64, onDone func()) *Flow {
	f := new(Flow)
	if onDone == nil {
		a.Begin(f, bytes, limit, nil, nil)
	} else {
		a.Begin(f, bytes, limit, callFunc, onDone)
	}
	return f
}

// callFunc runs a func() carried as an onDone argument.
func callFunc(fn any) { fn.(func())() }

// Begin is Start on a flow the caller owns: f is reset and runs as a
// new flow. f must not be running (a zero Flow, or one whose onDone
// has been reached); a caller that runs one transfer at a time reuses
// one Flow and allocates nothing. onDone(arg) runs when the last byte
// transfers; a static onDone with its receiver as arg builds nothing.
func (a *Arbiter) Begin(f *Flow, bytes float64, limit float64, onDone func(any), arg any) {
	if bytes < 0 {
		panic(fmt.Sprintf("bus: negative flow size %v", bytes))
	}
	if f.arb != nil && !f.done {
		panic("bus: Begin on a running flow")
	}
	*f = Flow{arb: a, remaining: bytes, limit: limit, onDone: onDone, arg: arg}
	a.advance()
	a.flows = append(a.flows, f)
	a.reschedule()
}

// advance banks progress made since lastAt at the current rates.
func (a *Arbiter) advance() {
	dt := float64(a.e.Now() - a.lastAt)
	a.lastAt = a.e.Now()
	if dt <= 0 {
		return
	}
	for _, f := range a.flows {
		delta := f.rate * dt
		if delta > f.remaining {
			delta = f.remaining
		}
		f.remaining -= delta
		a.moved += delta
	}
}

// recompute performs progressive filling (max-min fairness with
// per-flow caps): every flow gets min(cap, fair share), and bandwidth
// unused by capped flows is redistributed among the rest.
func (a *Arbiter) recompute() {
	if len(a.flows) == 0 {
		return
	}
	if a.capacity <= 0 {
		// Unlimited arbiter: every flow runs at its own cap (or
		// "infinitely fast" if uncapped — completed on next event).
		for _, f := range a.flows {
			f.rate = f.limit
		}
		return
	}
	remainingCap := a.capacity
	unassigned := a.unassigned[:0]
	for _, f := range a.flows {
		f.rate = -1
		unassigned = append(unassigned, f)
	}
	a.unassigned = unassigned // keep a grown array
	// Iteratively satisfy flows whose cap is below the fair share.
	for len(unassigned) > 0 {
		share := remainingCap / float64(len(unassigned))
		progressed := false
		next := unassigned[:0]
		for _, f := range unassigned {
			if f.limit > 0 && f.limit <= share {
				f.rate = f.limit
				remainingCap -= f.limit
				progressed = true
			} else {
				next = append(next, f)
			}
		}
		unassigned = next
		if !progressed {
			share = remainingCap / float64(len(unassigned))
			for _, f := range unassigned {
				f.rate = share
			}
			break
		}
	}
	clear(a.unassigned)
	a.unassigned = a.unassigned[:0]
}

// reschedule recomputes rates and schedules the next completion event.
func (a *Arbiter) reschedule() {
	a.timer.Stop()
	a.timer = sim.Timer{}
	a.recompute()
	if len(a.flows) == 0 {
		return
	}
	// Earliest completion across flows.
	first := sim.Duration(-1)
	for _, f := range a.flows {
		var d sim.Duration
		switch {
		case f.remaining <= 0:
			d = 0
		case f.rate <= 0:
			continue // starved; will complete only after others leave
		default:
			d = sim.Duration(f.remaining/f.rate + 0.999)
		}
		if first < 0 || d < first {
			first = d
		}
	}
	if first < 0 {
		// Every flow starved (capacity 0 with uncapped competitors is
		// impossible by construction; treat as immediate completion).
		first = 0
	}
	a.timer = a.e.ScheduleArg(first, arbiterComplete, a)
}

// arbiterComplete is the completion event, with the arbiter as its
// argument.
func arbiterComplete(arg any) { arg.(*Arbiter).complete() }

// complete banks progress and retires every finished flow.
func (a *Arbiter) complete() {
	a.timer = sim.Timer{}
	a.advance()
	live := a.flows[:0]
	finished := a.finished[:0]
	a.finished = nil
	for _, f := range a.flows {
		if f.remaining <= 0.5 { // sub-byte residue from integer rounding
			a.moved += f.remaining
			f.remaining = 0
			f.done = true
			finished = append(finished, f)
		} else {
			live = append(live, f)
		}
	}
	clear(a.flows[len(live):])
	a.flows = live
	a.reschedule()
	for _, f := range finished {
		if f.onDone != nil {
			f.onDone(f.arg)
		}
	}
	clear(finished)
	a.finished = finished[:0]
}
