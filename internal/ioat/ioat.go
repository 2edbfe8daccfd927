// Package ioat models the Intel I/O Acceleration Technology DMA engine
// found in the memory chipset: a small number of independent channels,
// each processing a serial queue of copy descriptors, with completions
// reported in order through a cookie that software polls from host
// memory. There are no interrupts — exactly like the Linux 2.6.23 DMA
// engine subsystem the paper builds on, waiters must busy-poll.
//
// Costs are split the way the paper measures them:
//
//   - CPU-side submission: a doorbell write plus per-descriptor setup
//     (≈350 ns for a single-descriptor copy);
//   - hardware-side processing: per-descriptor setup plus bytes at the
//     engine rate, with all channels sharing an aggregate throughput
//     cap (so striping one copy across channels buys ~40 %, not 4×);
//   - an idle-channel start latency, invisible to overlapped copies
//     but painful for small synchronous ones.
//
// Descriptors really move the payload bytes at completion time. A
// completed I/OAT copy leaves the destination cold in every CPU cache:
// the engine writes to memory and does not pollute (or warm) caches,
// which is exactly the behaviour the paper discusses.
//
// A descriptor's life allocates nothing once a channel is warm. Each
// channel keeps its descriptors by value in a head-cursor queue (the
// ring a real channel owns), runs the head descriptor as the one
// bus.Flow it embeds, and schedules its start and retirement through
// method values bound once in NewEngine; SubmitPages splits a copy at
// destination page boundaries without building a request slice.
package ioat

import (
	"fmt"

	"omxsim/internal/bus"
	"omxsim/internal/hostmem"
	"omxsim/platform"
	"omxsim/sim"
)

// CopyReq describes one descriptor: copy N bytes from Src+SrcOff to
// Dst+DstOff.
type CopyReq struct {
	Dst    *hostmem.Buffer
	DstOff int
	Src    *hostmem.Buffer
	SrcOff int
	N      int
	// OnDone, if non-nil, runs in engine context when this descriptor
	// retires (used by the driver's resource tracking to know which
	// skbuffs may be freed — the real driver learns this by polling,
	// at identical simulated times).
	OnDone func()
}

// Engine is the I/OAT DMA engine of one host.
type Engine struct {
	E *sim.Engine
	P *platform.Platform

	arb      *bus.Arbiter
	channels []*Channel
	rr       int

	// Totals for diagnostics.
	BytesCopied  int64
	DescsRetired int64
}

// NewEngine builds the DMA engine described by p.
func NewEngine(e *sim.Engine, p *platform.Platform) *Engine {
	eng := &Engine{
		E:   e,
		P:   p,
		arb: bus.New(e, float64(p.IOATAggregateRate)),
	}
	for i := 0; i < p.IOATChannels; i++ {
		c := &Channel{eng: eng, id: i}
		c.startFn, c.beginFn, c.retireFn = c.startHead, c.begin, c.retire
		eng.channels = append(eng.channels, c)
	}
	return eng
}

// Channels reports the number of DMA channels.
func (eng *Engine) Channels() int { return len(eng.channels) }

// Channel returns channel i.
func (eng *Engine) Channel(i int) *Channel { return eng.channels[i] }

// PickChannel returns the next channel round-robin. The Open-MX driver
// assigns one channel per message and relies on multiple outstanding
// messages to use all channels, exactly as described in Section V.
func (eng *Engine) PickChannel() *Channel {
	ch := eng.channels[eng.rr]
	eng.rr = (eng.rr + 1) % len(eng.channels)
	return ch
}

// SubmitCost reports the CPU time to submit a batch of n descriptors:
// one doorbell write plus per-descriptor setup. The caller charges this
// to the submitting CPU.
func (eng *Engine) SubmitCost(n int) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(eng.P.IOATDoorbellCost + int64(n)*eng.P.IOATPerDescSubmit)
}

// PollCost is the CPU time of one completion-cookie check.
func (eng *Engine) PollCost() sim.Duration { return sim.Duration(eng.P.IOATPollCost) }

// PageDescs reports how many descriptors SubmitPages builds for an
// n-byte copy to destination offset dstOff: one per destination page
// the range touches, since the engine manipulates DMA (physical page)
// addresses. This is why chunk size matters so much in Figure 7.
func (eng *Engine) PageDescs(dstOff, n int) int {
	if n <= 0 {
		return 0
	}
	ps := eng.P.PageSize
	return (dstOff+n-1)/ps - dstOff/ps + 1
}

// Channel is one serial DMA channel.
type Channel struct {
	eng *Engine
	id  int

	// queue[head:] holds the unretired descriptors, head first. The
	// backing array is reused: it resets when the queue drains, and
	// Submit moves the live entries down before an append would grow
	// it.
	queue     []desc
	head      int
	submitted uint64 // per-channel descriptor sequence, 1-based
	completed uint64 // last retired sequence (the completion cookie)
	active    bool   // head descriptor in flight (or starting up)

	// The head descriptor's drain rate, and the flow it runs as on the
	// engine's arbiter (one descriptor at a time per channel).
	rate float64
	flow bus.Flow

	// Bound once in NewEngine, so scheduling them allocates nothing.
	startFn, beginFn, retireFn func()

	// watchers is filtered in place; firing is the reused list of the
	// watchers being run (nil while they run).
	watchers []watcher
	firing   []watcher
}

type desc struct {
	req CopyReq
	seq uint64
}

type watcher struct {
	seq uint64
	fn  func()
}

// ID reports the channel index.
func (c *Channel) ID() int { return c.id }

// Completed reports the completion cookie: every descriptor with
// sequence ≤ Completed() has retired (in order). Reading the cookie on
// real hardware is a memory load; charge Engine.PollCost to a CPU when
// the simulated software does it.
func (c *Channel) Completed() uint64 { return c.completed }

// Pending reports the number of submitted but unretired descriptors.
func (c *Channel) Pending() int { return int(c.submitted - c.completed) }

// Submit enqueues descriptors and returns the sequence number of the
// last one; the batch is complete when Completed() reaches that value.
// Submit itself takes no simulated time — charge SubmitCost to the
// submitting CPU alongside.
func (c *Channel) Submit(reqs ...CopyReq) uint64 {
	for _, r := range reqs {
		c.add(r)
	}
	return c.submitted
}

// SubmitPages enqueues an n-byte copy from src+srcOff to dst+dstOff as
// page descriptors, split at destination page boundaries
// (Engine.PageDescs of them), and returns the last one's sequence.
// onDone, if non-nil, is the last descriptor's OnDone. Charge
// SubmitCost(PageDescs(dstOff, n)) alongside.
func (c *Channel) SubmitPages(dst *hostmem.Buffer, dstOff int, src *hostmem.Buffer, srcOff, n int, onDone func()) uint64 {
	ps := c.eng.P.PageSize
	for n > 0 {
		k := min(n, ps-dstOff%ps)
		r := CopyReq{Dst: dst, DstOff: dstOff, Src: src, SrcOff: srcOff, N: k}
		if k == n {
			r.OnDone = onDone
		}
		c.add(r)
		dstOff += k
		srcOff += k
		n -= k
	}
	return c.submitted
}

// add enqueues one descriptor, starting an idle channel.
func (c *Channel) add(r CopyReq) {
	if r.N < 0 {
		panic(fmt.Sprintf("ioat: negative copy size %d", r.N))
	}
	if c.head > 0 && len(c.queue) == cap(c.queue) {
		k := copy(c.queue, c.queue[c.head:])
		clear(c.queue[k:])
		c.queue = c.queue[:k]
		c.head = 0
	}
	c.submitted++
	c.queue = append(c.queue, desc{req: r, seq: c.submitted})
	if !c.active {
		c.active = true
		// Idle channel: the engine needs StartLatency after the
		// doorbell before the first descriptor is processed.
		c.eng.E.Schedule(sim.Duration(c.eng.P.IOATStartLatency), c.startFn)
	}
}

// startHead begins processing the descriptor at the head of the queue.
func (c *Channel) startHead() {
	if c.head == len(c.queue) {
		c.queue = c.queue[:0]
		c.head = 0
		c.active = false
		return
	}
	d := &c.queue[c.head]
	p := c.eng.P
	// NUMA: a destination homed on the remote socket costs extra per
	// descriptor (the engine's writes traverse the FSB) and drains at a
	// reduced rate. Local-socket destinations are unaffected.
	home := d.req.Dst.HomeSocket()
	setup := sim.Duration(p.IOATDescSetup + p.RemoteDMADescCost(home))
	c.rate = float64(p.IOATEngineRate) / p.RemoteDMAFactor(home)
	c.eng.E.Schedule(setup, c.beginFn)
}

// begin puts the head descriptor's bytes on the engine's shared
// bandwidth once its setup is over.
func (c *Channel) begin() {
	c.eng.arb.Begin(&c.flow, float64(c.queue[c.head].req.N), c.rate, c.retireFn)
}

// retire completes the head descriptor: move the bytes, update
// bookkeeping, notify watchers, continue with the next descriptor.
func (c *Channel) retire() {
	d := c.queue[c.head]
	c.queue[c.head] = desc{}
	c.head++
	r := d.req
	if r.N > 0 {
		hostmem.Copy(r.Dst, r.DstOff, r.Src, r.SrcOff, r.N)
		// The engine writes straight to memory: the destination is not
		// warmed in any CPU cache (and prior cached copies of those
		// lines are invalidated).
		r.Dst.WrittenByDMA()
	}
	c.completed = d.seq
	c.eng.BytesCopied += int64(r.N)
	c.eng.DescsRetired++
	if r.OnDone != nil {
		r.OnDone()
	}
	c.fireWatchers()
	// Back-to-back descriptors do not pay the start latency again.
	c.startHead()
}

// NotifyAt arranges for fn to run (in engine context) as soon as
// Completed() ≥ seq. If that already holds, fn runs immediately. This
// is a simulation convenience standing in for a software poll loop: the
// callback fires at exactly the simulated instant a busy-polling loop
// would observe the cookie advance.
func (c *Channel) NotifyAt(seq uint64, fn func()) {
	if c.completed >= seq {
		fn()
		return
	}
	c.watchers = append(c.watchers, watcher{seq: seq, fn: fn})
}

func (c *Channel) fireWatchers() {
	if len(c.watchers) == 0 {
		return
	}
	keep := c.watchers[:0]
	fire := c.firing[:0]
	c.firing = nil
	for _, w := range c.watchers {
		if c.completed >= w.seq {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	clear(c.watchers[len(keep):])
	c.watchers = keep
	for _, w := range fire {
		w.fn()
	}
	clear(fire)
	c.firing = fire[:0]
}
