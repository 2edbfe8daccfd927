// Package mxoe models Myricom's native Myrinet Express over Ethernet
// stack on a Myri-10G NIC: the performance baseline of every figure in
// the paper, and the interoperability peer of Open-MX (both speak the
// internal/proto wire format — a key Open-MX feature).
//
// The defining differences from Open-MX are architectural, and the
// model captures exactly those:
//
//   - OS bypass: posting a send or receive is a user-level write to
//     the NIC (MXPostCost), no system call, no driver;
//   - receive processing runs in NIC firmware: no interrupt, no
//     bottom half, no host CPU;
//   - eager data is deposited by NIC DMA into a host receive queue and
//     copied ONCE by the library after matching (Open-MX needs two
//     copies);
//   - large messages are deposited by DMA directly into the pinned
//     destination buffer — zero host copies — after a firmware-level
//     rendezvous/pull exchange, paced by the firmware's control
//     traffic (the ~4 % that puts MX at 1140 MiB/s instead of the
//     1186 MiB/s line rate). Each pull reply carries a view of the
//     lent sender buffer, never a copy of it;
//   - registration is more expensive per page than Open-MX's (the
//     NIC's translation table must be updated), making the
//     registration cache matter more (Figure 11).
//
// Reliability is handled entirely by the firmware, as on real
// Myri-10G boards: cumulative acks, duplicate suppression,
// retransmission with exponential backoff and pull-block retry all
// run at frame-arrival time with zero host CPU (see reliability.go).
// On a clean link none of it costs anything — no timer fires and no
// extra frame is emitted.
package mxoe

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// Config selects native-stack options. On a platform with HasDCA the
// firmware steers its DMA deposits at the receiving endpoint's own
// core: native MX firmware knows the consumer, unlike the generic
// driver, which can only follow the interrupt.
type Config struct {
	// RegCache enables the registration cache: per-stack and
	// unbounded. It is worth more here than in Open-MX, because MX
	// registration also updates the NIC's translation table.
	RegCache bool
	// RetransmitTimeout is the firmware's base retransmission timeout
	// (default 50 ms) for unacked eager messages, rendezvous requests
	// and pull blocks. Every consecutive unanswered attempt doubles
	// it, up to 16 times the base. Retransmission runs in firmware and
	// costs the host no CPU.
	RetransmitTimeout sim.Duration
	// Adaptive enables the firmware's self-tuning tier, run by the
	// shared transport core (proto.Transport) in firmware context:
	// per-peer RTT-derived retransmission timeouts (unless an explicit
	// RetransmitTimeout pins the static base) and AIMD-sized pull
	// windows. There is no IRQ steering: the firmware never interrupts
	// the host. Off, the firmware behaves bit-identically to the fixed
	// two-blocks-per-lane configuration.
	Adaptive bool
}

// Stats counts firmware protocol activity for tests and diagnostics:
// the counters shared with the Open-MX stack, plus the firmware's own.
type Stats struct {
	proto.Counters
	FragsSent  int64
	QueueDrops int64
	// Coll counts NIC-offloaded collective activity (coll.go).
	Coll CollStats
}

// Stack is the native MXoE instance of one host. The embedded
// transport core (lanes, trace sink, registration cache,
// retransmission timing, rendezvous dedup) is the one the Open-MX
// stack runs too; the firmware always stripes round-robin (real MX
// firmware has no configurable hash policy) and widens its pull
// window to two blocks per lane.
type Stack struct {
	proto.Transport
	Cfg Config

	endpoints  map[int]*Endpoint
	sends      map[int]*mxSend
	pulls      map[int]*mxPull
	nextHandle int

	// Firmware collective-group state (coll.go): registered groups by
	// (group ID, endpoint), plus frames that arrived before the local
	// CollJoin.
	collGroups  map[collKey]*CollGroup
	collPending map[collKey][]*wire.Frame

	// The firmware's pool of collective payload buffers, and its
	// released hop and ack records (coll.go), with how many of each
	// record the stack has made and how many hop records outlived
	// their call's retirement, waiting for a delivery of their frame.
	collBufs           [][]byte
	outFree            *collOut
	ackFree            *collAck
	outsMade, acksMade int
	outsHeld           int

	// Released firmware deposit and pull pacing records (firmware.go).
	depFree   *fwDeposit
	pacerFree *fwPacer

	Stats Stats
}

// Attach builds a native MX stack on h, switching the NIC to firmware
// mode. The stack's maps are made on first insert.
func Attach(h *host.Host, cfg Config) *Stack {
	s := &Stack{Cfg: cfg}
	s.Transport = proto.NewTransport(h, &s.Stats.Counters, proto.TransportConfig{
		RegCache: cfg.RegCache, RetransmitTimeout: cfg.RetransmitTimeout, Adaptive: cfg.Adaptive,
	})
	for _, n := range h.NICs {
		n.SetFirmware(s)
	}
	return s
}

// Endpoint is one MX endpoint (user library + firmware queue state).
type Endpoint struct {
	S    *Stack
	ID   int
	Core int

	ring  *hostmem.Buffer
	slots proto.Slots

	evq    []*event // evq[evHead:] are pending
	evHead int
	evSig  *sim.Signal

	posted []*Request
	ux     []*uxMsg
	asm    map[asmKey]*assembly

	// Firmware reliability state, per peer.
	tx map[proto.Addr]*proto.TxChan[eagerFrames]
	rx map[proto.Addr]*proto.RxChan
}

// Request is an in-flight MX operation.
type Request struct {
	ep     *Endpoint
	isRecv bool
	done   bool

	Len        int
	SenderAddr proto.Addr
	MatchInfo  uint64

	match, mask uint64
	buf         *hostmem.Buffer
	off, n      int
	dst         proto.Addr
}

// Done reports completion.
func (r *Request) Done() bool { return r.done }

type evKind int

const (
	evEagerFrag evKind = iota
	evRndv
	evRecvDone
	evSendDone
	evCollDone
	evShm
)

type event struct {
	kind    evKind
	src     proto.Addr
	match   uint64
	seq     uint32
	msgLen  int
	fragID  int
	fragCnt int
	offset  int
	slot    int
	dataLen int
	handle  int
	req     *Request
	seg     *hostmem.Buffer // shared-memory payload segment
}

type uxKind int

const (
	uxEager uxKind = iota
	uxRndv
)

type uxMsg struct {
	kind   uxKind
	src    proto.Addr
	match  uint64
	seq    uint32
	msgLen int
	tmp    *hostmem.Buffer
	handle int
}

type asmKey struct {
	src proto.Addr
	seq uint32
}

// assembly is the library's reassembly of one eager message.
type assembly struct {
	proto.Reassembly
	match  uint64
	msgLen int
	dst    *Request
	tmp    *hostmem.Buffer
}

// mxSend is the sender side of a rendezvous: the shared state
// machine, run by the firmware, plus the posting endpoint and request.
type mxSend struct {
	proto.RndvSend
	ep  *Endpoint
	req *Request
}

// mxPull is the receiver side of a rendezvous: the shared pull state
// plus the count of fragments the NIC has deposited.
type mxPull struct {
	proto.RndvPull
	ep        *Endpoint
	req       *Request
	deposited int
}

// OpenEndpoint creates endpoint id bound to a core.
func (s *Stack) OpenEndpoint(id, coreID int) *Endpoint {
	if _, dup := s.endpoints[id]; dup {
		panic(fmt.Sprintf("mxoe: endpoint %d already open on %s", id, s.H.Name))
	}
	ep := &Endpoint{
		S: s, ID: id, Core: coreID,
		ring:  s.H.Alloc(proto.RingSlots * proto.MediumFragSize),
		slots: proto.NewSlots(proto.RingSlots),
		evSig: sim.NewSignal(),
	}
	proto.Insert(&s.endpoints, id, ep)
	return ep
}

// Addr returns the endpoint's address.
func (ep *Endpoint) Addr() proto.Addr { return proto.Addr{Host: ep.S.H.Name, EP: ep.ID} }

func (ep *Endpoint) core() *cpu.Core { return ep.S.H.Sys.Core(ep.Core) }

func (ep *Endpoint) pushEvent(ev *event) {
	ep.evq = append(ep.evq, ev)
	ep.evSig.Broadcast()
}

// ISend posts a send: an OS-bypass NIC command. Intra-node messages
// take the library's shared-memory channel; eager messages stream
// immediately; large ones pin and send a rendezvous request.
func (ep *Endpoint) ISend(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, off, n int) *Request {
	s := ep.S
	r := &Request{ep: ep, dst: dst, MatchInfo: match, buf: buf, off: off, n: n}
	if dst.Host == s.H.Name {
		return ep.shmSend(p, r)
	}
	tc := ep.mxTx(dst)
	seq := tc.Next()
	if n > 32*1024 {
		cost := sim.Duration(s.H.P.MXPostCost) + s.PinCost(buf, n, s.H.P.MXPinPerPage)
		ep.core().RunOn(p, cpu.UserLib, cost)
		// Lent until the peer's RndvAck: pull replies carry views.
		buf.Lend()
		s.nextHandle++
		ms := &mxSend{ep: ep, req: r, RndvSend: proto.RndvSend{
			Handle: s.nextHandle, Dst: dst, Seq: seq, Buf: buf, Off: off, N: n,
		}}
		proto.Insert(&s.sends, ms.Handle, ms)
		s.StartRndv(&ms.RndvSend, ms.transmitRequest)
		return r
	}
	ep.core().RunOn(p, cpu.UserLib, sim.Duration(s.H.P.MXPostCost))
	frags := proto.MediumFragsOf(n)
	var u eagerFrames
	for f := 0; f < frags; f++ {
		fo, fl := proto.MediumFrag(n, f)
		var payload []byte
		if fl > 0 {
			payload = make([]byte, fl)
			buf.ReadAt(payload, off+fo)
		}
		m := &proto.Eager{
			Src: ep.Addr(), Dst: dst, Match: match, Seq: seq, MsgLen: n,
			FragID: f, FragCount: frags, Offset: fo,
		}
		u.msgs = append(u.msgs, m)
		u.loads = append(u.loads, payload)
		// Fragments stripe round-robin across NIC lanes; the firmware
		// assembly bitmaps tolerate any cross-lane arrival order.
		s.TransmitOn(s.LaneOf(seq, f), dst, m, payload)
	}
	// The firmware keeps the frame copies until the peer's
	// cumulative ack covers them, retransmitting on timeout.
	tc.Sent(seq, u)
	// Eager sends complete at post time: the NIC has copied the data
	// and firmware-level retransmission guarantees delivery.
	r.done = true
	return r
}

// IRecv posts a receive into the library matching state.
func (ep *Endpoint) IRecv(p *sim.Proc, match, mask uint64, buf *hostmem.Buffer, off, n int) *Request {
	ep.core().RunOn(p, cpu.UserLib, sim.Duration(ep.S.H.P.OMXLibPickupCost))
	r := &Request{ep: ep, isRecv: true, match: match, mask: mask, buf: buf, off: off, n: n}
	for i, u := range ep.ux {
		if !proto.Matches(match, mask, u.match) {
			continue
		}
		ep.ux = append(ep.ux[:i], ep.ux[i+1:]...)
		switch u.kind {
		case uxEager:
			cnt := min(u.msgLen, n)
			if cnt > 0 {
				d := ep.S.H.Copy.Memcpy(buf, off, u.tmp, 0, cnt, ep.Core)
				ep.core().RunOn(p, cpu.UserLib, d)
			}
			r.Len, r.SenderAddr, r.MatchInfo, r.done = cnt, u.src, u.match, true
		case uxRndv:
			ep.startPull(p, r, u)
		}
		return r
	}
	// In-progress unexpected assemblies may be claimed by a new post.
	// Without this, a message whose first fragment arrived before the
	// post — possible whenever retransmission delays a fragment —
	// would complete into the unexpected queue and never be matched.
	// Selection is by lowest (source, sequence), never by map order,
	// so runs stay bit-reproducible.
	var claim *assembly
	var claimKey asmKey
	for k, a := range ep.asm {
		if a.dst == nil && proto.Matches(match, mask, a.match) && (claim == nil || proto.ClaimBefore(k.src, k.seq, claimKey.src, claimKey.seq)) {
			claim, claimKey = a, k
		}
	}
	if claim != nil {
		claim.dst = r
		if claim.Arrived > 0 && claim.tmp != nil {
			ep.claimArrived(p, r, claim)
		}
		claim.tmp = nil
		return r
	}
	ep.posted = append(ep.posted, r)
	return r
}

// claimArrived copies the already-arrived fragments of a claimed
// assembly into the posted receive, fragment by fragment per
// proto.CopyPlan (arrivals need not be contiguous once retransmission
// or cross-NIC striping is involved; this library always copies
// per fragment, unlike Open-MX's merged-prefix fast path).
func (ep *Endpoint) claimArrived(p *sim.Proc, r *Request, a *assembly) {
	limit := min(a.msgLen, r.n)
	for _, run := range proto.CopyPlan(a.Got, a.Arrived, proto.MediumFragSize, limit, false) {
		d := ep.S.H.Copy.Memcpy(r.buf, r.off+run.Off, a.tmp, run.Off, run.N, ep.Core)
		ep.core().RunOn(p, cpu.UserLib, d)
	}
}

// Wait drives library progress until r completes.
func (ep *Endpoint) Wait(p *sim.Proc, r *Request) {
	for !r.done {
		if !ep.Progress(p) {
			p.WaitFor(ep.evSig, ep.hasEvents)
		}
	}
}

// Test reports whether r completed after a progress pass.
func (ep *Endpoint) Test(p *sim.Proc, r *Request) bool {
	ep.Progress(p)
	return r.done
}

// Progress drains pending events. The queue keeps its backing array:
// once drained it restarts at the front.
func (ep *Endpoint) Progress(p *sim.Proc) bool {
	if !ep.hasEvents() {
		return false
	}
	for ep.hasEvents() {
		ev := ep.evq[ep.evHead]
		ep.evq[ep.evHead] = nil
		ep.evHead++
		if ep.evHead == len(ep.evq) {
			ep.evq, ep.evHead = ep.evq[:0], 0
		}
		ep.core().RunOn(p, cpu.UserLib, sim.Duration(ep.S.H.P.OMXLibPickupCost))
		ep.handleEvent(p, ev)
	}
	return true
}

// hasEvents reports whether an event is pending.
func (ep *Endpoint) hasEvents() bool { return ep.evHead < len(ep.evq) }

func (ep *Endpoint) handleEvent(p *sim.Proc, ev *event) {
	switch ev.kind {
	case evEagerFrag:
		ep.handleEagerFrag(p, ev)
	case evRndv:
		u := &uxMsg{kind: uxRndv, src: ev.src, match: ev.match, seq: ev.seq, msgLen: ev.msgLen, handle: ev.handle}
		for i, r := range ep.posted {
			if proto.Matches(r.match, r.mask, ev.match) {
				ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
				ep.startPull(p, r, u)
				return
			}
		}
		ep.ux = append(ep.ux, u)
	case evRecvDone:
		d := ep.S.UnpinCost(ev.req.buf, ev.req.n)
		if d > 0 {
			ep.core().RunOn(p, cpu.UserLib, d)
		}
		ev.req.done = true
	case evSendDone:
		d := ep.S.UnpinCost(ev.req.buf, ev.req.n)
		if d > 0 {
			ep.core().RunOn(p, cpu.UserLib, d)
		}
		ev.req.done = true
	case evCollDone:
		// Barriers post no destination buffer, so there may be
		// nothing to unregister.
		if ev.req.buf != nil {
			if d := ep.S.UnpinCost(ev.req.buf, ev.req.n); d > 0 {
				ep.core().RunOn(p, cpu.UserLib, d)
			}
		}
		ev.req.done = true
	case evShm:
		ep.handleShm(p, ev)
	}
}

// handleEagerFrag: the library's single copy from the NIC-deposited
// receive queue to the destination.
func (ep *Endpoint) handleEagerFrag(p *sim.Proc, ev *event) {
	key := asmKey{src: ev.src, seq: ev.seq}
	a := ep.asm[key]
	if a == nil {
		a = &assembly{Reassembly: proto.Reassembly{Frags: ev.fragCnt}, match: ev.match, msgLen: ev.msgLen}
		for i, r := range ep.posted {
			if proto.Matches(r.match, r.mask, ev.match) {
				ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
				a.dst = r
				break
			}
		}
		if a.dst == nil && ev.msgLen > 0 {
			a.tmp = ep.S.H.Alloc(ev.msgLen)
		}
		proto.Insert(&ep.asm, key, a)
	}
	if a.Mark(ev.fragID) {
		dstBuf, dstOff, limit := a.tmp, ev.offset, ev.msgLen
		if a.dst != nil {
			dstBuf, dstOff = a.dst.buf, a.dst.off+ev.offset
			limit = min(ev.msgLen, a.dst.n)
		}
		n := ev.dataLen
		if ev.offset+n > limit {
			n = limit - ev.offset
		}
		if n > 0 && dstBuf != nil {
			d := ep.S.H.Copy.Memcpy(dstBuf, dstOff, ep.ring, ep.slotOff(ev.slot), n, ep.Core)
			ep.core().RunOn(p, cpu.UserLib, d)
		}
	}
	if ev.slot >= 0 {
		ep.slots.Put(ev.slot)
	}
	if a.Done() {
		delete(ep.asm, key)
		if a.dst != nil {
			a.dst.Len = min(a.msgLen, a.dst.n)
			a.dst.SenderAddr, a.dst.MatchInfo = ev.src, a.match
			a.dst.done = true
		} else {
			ep.ux = append(ep.ux, &uxMsg{kind: uxEager, src: ev.src, match: a.match, msgLen: a.msgLen, tmp: a.tmp})
		}
		// Transport-level cumulative ack: it completes interoperating
		// Open-MX senders and releases this firmware's own
		// retransmission snapshots on a native peer. The firmware
		// window advanced when the last fragment arrived, so its edge
		// covers ev.seq (and anything completed before it).
		ack := ev.seq
		if ch := ep.rx[ev.src]; ch != nil {
			ack = ch.Edge()
		}
		ep.S.TransmitAck(ev.src, proto.Ack{Src: ev.src, Dst: ep.Addr(), AckSeq: ack})
	}
}

func (ep *Endpoint) slotOff(i int) int { return i * proto.MediumFragSize }

// startPull: user-level pull command; the firmware then drives the
// whole transfer with zero host involvement.
func (ep *Endpoint) startPull(p *sim.Proc, r *Request, u *uxMsg) {
	s := ep.S
	n := min(u.msgLen, r.n)
	cost := sim.Duration(s.H.P.MXPostCost) + s.PinCost(r.buf, n, s.H.P.MXPinPerPage)
	ep.core().RunOn(p, cpu.UserLib, cost)
	s.nextHandle++
	lp := &mxPull{ep: ep, req: r, RndvPull: proto.RndvPull{
		Handle: s.nextHandle, Local: ep.Addr(), Src: u.src, SenderHandle: u.handle,
		Key: proto.RndvKey{Src: u.src, Dst: ep.ID, Seq: u.seq},
		Buf: r.buf, Off: r.off, N: n,
	}}
	r.MatchInfo, r.SenderAddr = u.match, u.src
	// Two pipelined pull blocks outstanding per NIC lane, entirely
	// firmware-driven: the single-NIC window is the classic two
	// blocks; an aggregated link widens proportionally so every lane
	// keeps a block's worth of fragments in flight. An adaptive
	// transfer instead starts at the AIMD controller's minimum and
	// grows as clean block round trips accumulate.
	s.StartPull(&lp.RndvPull, mxBlockFrags, 2*s.Lanes, s.Cfg.Adaptive, lp.retryBlock)
	proto.Insert(&s.pulls, lp.Handle, lp)
	for i := 0; i < lp.Window() && lp.More(); i++ {
		s.PullNext(&lp.RndvPull)
	}
}
