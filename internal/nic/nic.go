// Package nic models a 10 Gbit/s Ethernet NIC and its driver's receive
// path, in two personalities:
//
//   - Generic mode reproduces the Linux receive path the paper's
//     Open-MX runs on: incoming frames are DMA'd into the next skbuff
//     of a circular receive ring ("the driver cannot predict which
//     packet will arrive next"), an interrupt schedules a bottom half,
//     and a NAPI-style loop drains pending skbuffs on one core, calling
//     the registered protocol receive handler for each. Ring overflow
//     drops frames (exercised by the retransmission tests).
//
//   - Firmware mode models Myricom's native MXoE personality: frames
//     are handled entirely by NIC firmware with no host interrupt, no
//     skbuff and no bottom half; the registered firmware handler runs
//     at frame arrival and performs its own DMA timing.
//
// The bottom half is a simulated kernel process (softirq priority) so
// its CPU time lands in the accounting that Figure 9 reports.
package nic

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// Skb is a socket buffer holding one received frame.
type Skb struct {
	Buf   *hostmem.Buffer // payload bytes, freshly DMA'd (cache-cold); read-only
	Frame *wire.Frame
	nic   *NIC
	freed bool
}

// Len reports the payload length.
func (s *Skb) Len() int { return s.Buf.Size() }

// Free releases the skbuff. Freeing twice panics (use-after-free guard
// for the driver's resource tracking).
func (s *Skb) Free() {
	if s.freed {
		panic("nic: double free of skbuff")
	}
	s.freed = true
	s.nic.skbsLive--
}

// RxHandler is the protocol receive callback, invoked in bottom-half
// context. It must charge its own CPU costs through p and core, and it
// owns the skbuff (must eventually Free it).
type RxHandler func(p *sim.Proc, core *cpu.Core, skb *Skb)

// FirmwareHandler receives raw frames in firmware mode, at wire
// arrival time, with no host CPU involvement.
type FirmwareHandler func(f *wire.Frame)

// NIC is one network interface.
type NIC struct {
	E    *sim.Engine
	P    *platform.Platform
	Sys  *cpu.System
	Mem  *hostmem.Memory
	Name string
	// Lane is this NIC's index on its host (0 for the primary NIC).
	// Multi-NIC hosts stripe traffic across lanes; the protocol stacks
	// learn a frame's arrival lane from the NIC that delivered it.
	Lane int

	hose *wire.Hose // transmit side, set via SetHose

	// Receive configuration.
	handler  RxHandler
	firmware FirmwareHandler
	// IRQCore is the core that receives this NIC's interrupts and runs
	// its bottom half (the paper: "the NIC may send interrupts to any
	// core"). It is resolved at the start of each bottom-half run, so
	// the adaptive transport tier may re-steer it between interrupts;
	// without Config.Adaptive it stays fixed for the whole run, the
	// common production setup.
	IRQCore int
	// DCATarget, on platforms with HasDCA, is the core whose LLC the
	// NIC's DMA deposits are pushed into (the DCA tag in the TLP
	// header). Negative means follow IRQCore — the chipset default of
	// steering toward the interrupted core.
	DCATarget int

	// Receive state (generic mode). pending is a head-cursor FIFO:
	// popping advances pendingHead instead of reslicing, so the backing
	// array's capacity is reused forever and the rx steady state never
	// reallocates.
	pending     []*Skb
	pendingHead int
	inflight    int // frames being DMA'd into ring skbuffs
	bhSig       *sim.Signal
	bhBusy      bool

	// Transmit state (same head-cursor FIFO idiom). txCur is the frame
	// in its host-to-NIC DMA (one at a time); txDoneFn and depositFn
	// are bound once in New, so no frame builds a closure.
	txQueue   []*wire.Frame
	txHead    int
	txActive  bool
	txCur     *wire.Frame
	txDoneFn  func()
	depositFn func(any)

	// Stats.
	RxFrames  int64
	RxDrops   int64
	TxFrames  int64
	BHRuns    int64
	skbsLive  int
	SkbsAlloc int64
}

// New returns a NIC attached to the given host resources.
func New(e *sim.Engine, p *platform.Platform, sys *cpu.System, mem *hostmem.Memory, name string) *NIC {
	n := &NIC{E: e, P: p, Sys: sys, Mem: mem, Name: name, DCATarget: -1, bhSig: sim.NewSignal()}
	n.txDoneFn = n.txDone
	n.depositFn = n.deposit
	e.GoDaemon("bh:"+name, n.bhLoop)
	return n
}

// Address implements wire.Port.
func (n *NIC) Address() string { return n.Name }

// SetHose attaches the transmit hose (created by wire.Connect or a
// switch).
func (n *NIC) SetHose(h *wire.Hose) { n.hose = h }

// Hose returns the transmit hose.
func (n *NIC) Hose() *wire.Hose { return n.hose }

// SetRxHandler selects generic mode with the given protocol callback.
func (n *NIC) SetRxHandler(h RxHandler) {
	n.handler = h
	n.firmware = nil
}

// SetFirmware selects firmware mode with the given handler.
func (n *NIC) SetFirmware(h FirmwareHandler) {
	n.firmware = h
	n.handler = nil
}

// SkbsLive reports skbuffs delivered to the protocol and not yet freed
// (the "pool of skbuffs being queued for copy" the paper's resource
// tracking bounds).
func (n *NIC) SkbsLive() int { return n.skbsLive }

// Transmit queues a frame for transmission: a host-to-NIC DMA read,
// then wire serialization. The sending CPU costs (building the skbuff,
// the syscall) are the protocol's business and must be charged before
// calling Transmit.
func (n *NIC) Transmit(f *wire.Frame) {
	f.SrcAddr = n.Name
	n.txQueue = append(n.txQueue, f)
	if !n.txActive {
		n.txActive = true
		n.txNext()
	}
}

func (n *NIC) txNext() {
	if n.txHead == len(n.txQueue) {
		n.txQueue = n.txQueue[:0]
		n.txHead = 0
		n.txActive = false
		return
	}
	f := n.txQueue[n.txHead]
	n.txQueue[n.txHead] = nil
	n.txHead++
	n.txCur = f
	dma := sim.Duration(n.P.NICFixedLatency) + sim.Duration(float64(f.WireLen)/float64(n.P.NICDMARate))
	n.E.Schedule(dma, n.txDoneFn)
}

// txDone hands txCur, now read from host memory, to the wire and
// starts the next frame's DMA.
func (n *NIC) txDone() {
	f := n.txCur
	n.txCur = nil
	n.TxFrames++
	if n.hose == nil {
		panic(fmt.Sprintf("nic %s: transmit with no hose attached", n.Name))
	}
	n.E.DigestFrame(f.SrcAddr, f.DstAddr, f.WireLen)
	n.hose.Send(f)
	n.txNext()
}

// Arrive implements wire.Port: a frame's last bit has arrived.
func (n *NIC) Arrive(f *wire.Frame) {
	if n.firmware != nil {
		n.firmware(f)
		return
	}
	if n.handler == nil {
		panic(fmt.Sprintf("nic %s: frame arrived with no handler", n.Name))
	}
	// Ring occupancy: frames being DMA'd plus frames waiting for the
	// bottom half. When the ring is exhausted the NIC has nowhere to
	// put the frame and drops it.
	if n.inflight+n.pendingLen() >= n.P.RxRingSize {
		n.RxDrops++
		return
	}
	n.inflight++
	// Ring skbuffs are kernel allocations on the chipset's home socket,
	// so the deposit itself never pays the remote-DMA penalty here (the
	// firmware personality, which deposits into user-placed buffers,
	// does; see mxoe).
	dma := sim.Duration(n.P.NICFixedLatency) + sim.Duration(float64(f.WireLen)/float64(n.P.NICDMARate))
	n.E.ScheduleArg(dma, n.depositFn, f)
}

// deposit completes the DMA of an arrived frame (several may be in
// flight) into a ring skbuff and wakes the bottom half.
func (n *NIC) deposit(arg any) {
	f := arg.(*wire.Frame)
	n.inflight--
	n.RxFrames++
	// A sent frame's payload never changes (a pull reply views the
	// lent sender buffer, which copies itself before a write, and
	// duplicates share one Frame), so the skbuff wraps it instead of
	// copying it.
	buf := n.Mem.Wrap(f.Data)
	if n.P.HasDCA {
		// Direct Cache Access: the deposit is pushed into the DCA
		// target core's LLC instead of landing cold in memory.
		buf.WrittenByDCA(n.DCATargetCore(), len(f.Data))
	} else {
		buf.WrittenByDMA()
	}
	n.SkbsAlloc++
	n.skbsLive++
	n.pending = append(n.pending, &Skb{Buf: buf, Frame: f, nic: n})
	n.bhSig.Broadcast()
}

// DCATargetCore resolves the core whose cache DCA deposits are pushed
// toward: the configured target, or the interrupted core by default.
func (n *NIC) DCATargetCore() int {
	if n.DCATarget >= 0 {
		return n.DCATarget
	}
	return n.IRQCore
}

// pendingLen reports the number of skbuffs waiting for the bottom half.
func (n *NIC) pendingLen() int { return len(n.pending) - n.pendingHead }

// popPending removes the FIFO head, recycling the backing array when
// it drains.
func (n *NIC) popPending() *Skb {
	skb := n.pending[n.pendingHead]
	n.pending[n.pendingHead] = nil
	n.pendingHead++
	if n.pendingHead == len(n.pending) {
		n.pending = n.pending[:0]
		n.pendingHead = 0
	}
	return skb
}

// bhLoop is the NAPI-style bottom half: one kernel process per NIC.
func (n *NIC) bhLoop(p *sim.Proc) {
	for {
		p.WaitFor(n.bhSig, func() bool { return n.pendingLen() > 0 })
		// Interrupt delivery + hard-irq handler before softirq work.
		p.Sleep(sim.Duration(n.P.IRQLatency))
		n.BHRuns++
		n.bhBusy = true
		core := n.Sys.Core(n.IRQCore)
		for n.pendingLen() > 0 {
			budget := n.P.NAPIBudget
			for budget > 0 && n.pendingLen() > 0 {
				skb := n.popPending()
				// Generic driver + skbuff handling for this frame.
				core.RunOn(p, cpu.BHProc, sim.Duration(n.P.SkbPerFrameCost))
				n.handler(p, core, skb)
				budget--
			}
			// Budget exhausted with frames still pending: NAPI yields
			// the softirq and immediately re-polls (no new interrupt).
			if n.pendingLen() > 0 {
				p.Yield()
			}
		}
		n.bhBusy = false
	}
}
