package core

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/sim"
)

// Endpoint is one Open-MX communication endpoint: the user-library
// state (matching lists, eager reassembly, registration cache) plus
// the driver-shared event ring. An endpoint is used by a single
// simulated process, bound to one core.
type Endpoint struct {
	S    *Stack
	ID   int
	Core int // the core the owning process runs on

	// Receive ring: statically pinned kernel pages the bottom half
	// copies eager payloads into, one 4 kiB slot per fragment.
	ring  *hostmem.Buffer
	slots proto.Slots

	// Event queue from driver to library.
	evq   []*event
	evSig *sim.Signal

	// Library matching state.
	posted []*Request
	ux     []*uxMsg

	// Per-peer channels. A transmit channel keeps each unacked send's
	// request.
	txChans map[proto.Addr]*proto.TxChan[*Request]
	rxChans map[proto.Addr]*rxChan
}

// Request is an in-flight send or receive operation.
type Request struct {
	ep     *Endpoint
	isRecv bool
	done   bool

	// Completion information (valid once Done).
	Len        int        // bytes delivered (receives)
	SenderAddr proto.Addr // source of the matched message (receives)
	MatchInfo  uint64     // match value of the message

	// Receive posting.
	match, mask uint64
	buf         *hostmem.Buffer
	off, n      int

	// Send bookkeeping.
	dst proto.Addr
	seq uint32
}

// Done reports whether the operation has completed. Completion is
// driven by the library progress engine (Wait or Progress).
func (r *Request) Done() bool { return r.done }

type evKind int

const (
	evEagerFrag evKind = iota
	evRndv
	evLargeDone
	evSendDone
	evEagerAcked
	evLocalMsg
	evLocalDone
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
	slot    int // ring slot holding payload; -1 if none
	dataLen int
	inline  []byte // tiny payload carried in the event itself
	handle  int    // rendezvous sender handle
	req     *Request
	reqs    []*Request // eager sends completed by an ack
	lm      *localMsg
}

type uxKind int

const (
	uxEager uxKind = iota
	uxRndv
	uxLocal
)

type uxMsg struct {
	kind   uxKind
	src    proto.Addr
	match  uint64
	seq    uint32
	msgLen int
	tmp    *hostmem.Buffer // assembled eager payload
	handle int             // rendezvous sender handle
	lm     *localMsg
}

// rxChan is the receive-side state from one remote endpoint: the
// shared channel (window and fragment dedup), into which the bottom
// half accepts fragments and in which the library completes messages;
// the library's reassemblies; and the deferred-ack state.
type rxChan struct {
	proto.RxChan
	src         proto.Addr
	asm         map[uint32]*assembly
	lastAckSent uint32
	ackTimer    sim.Timer
}

// assembly is the library's reassembly of one eager message.
type assembly struct {
	proto.Reassembly
	src    proto.Addr
	seq    uint32
	match  uint64
	msgLen int
	dst    *Request        // matched posted receive, nil if unexpected
	tmp    *hostmem.Buffer // unexpected storage
}

// OpenEndpoint creates endpoint id bound to the given core. Endpoint
// ids are per host; opening a duplicate id panics.
func (s *Stack) OpenEndpoint(id, coreID int) *Endpoint {
	if _, dup := s.endpoints[id]; dup {
		panic(fmt.Sprintf("openmx: endpoint %d already open on %s", id, s.H.Name))
	}
	ep := &Endpoint{
		S:     s,
		ID:    id,
		Core:  coreID,
		ring:  s.H.Alloc(proto.RingSlots * proto.MediumFragSize),
		slots: proto.NewSlots(proto.RingSlots),
		evSig: sim.NewSignal(),
	}
	proto.Insert(&s.endpoints, id, ep)
	return ep
}

// Addr returns this endpoint's network address.
func (ep *Endpoint) Addr() proto.Addr { return ep.S.addr(ep.ID) }

func (ep *Endpoint) core() *cpu.Core { return ep.S.H.Sys.Core(ep.Core) }

// allocSlot takes a receive-ring slot, or -1 when the ring is full
// (the frame is dropped and retransmission recovers).
func (ep *Endpoint) allocSlot() int { return ep.slots.Take() }

func (ep *Endpoint) freeSlot(i int) { ep.slots.Put(i) }

func (ep *Endpoint) slotOff(i int) int { return i * proto.MediumFragSize }

func (ep *Endpoint) txChan(dst proto.Addr) *proto.TxChan[*Request] {
	c := ep.txChans[dst]
	if c == nil {
		c = proto.NewTxChan(&ep.S.Transport, dst, ep.resendEager)
		proto.Insert(&ep.txChans, dst, c)
	}
	return c
}

func (ep *Endpoint) rxChan(src proto.Addr) *rxChan {
	c := ep.rxChans[src]
	if c == nil {
		c = &rxChan{
			RxChan: proto.RxChan{Window: proto.NewWindow()},
			src:    src,
		}
		proto.Insert(&ep.rxChans, src, c)
	}
	return c
}

// pushEvent appends a driver→library event and wakes waiters. Callers
// charge the event-write cost themselves.
func (ep *Endpoint) pushEvent(ev *event) {
	ep.evq = append(ep.evq, ev)
	ep.evSig.Broadcast()
}

// takeAck returns the piggyback cumulative ack for outgoing traffic to
// dst and disarms any pending explicit-ack timer.
func (ep *Endpoint) takeAck(dst proto.Addr) uint32 {
	c := ep.rxChans[dst]
	if c == nil {
		return 0
	}
	c.ackTimer.Stop()
	c.ackTimer = sim.Timer{}
	c.lastAckSent = c.Edge()
	return c.Edge()
}

// ---------------------------------------------------------------------
// Posting operations (library, called from the owning process).
// ---------------------------------------------------------------------

// ISend starts a send of n bytes at buf[off:] to dst with the given
// match value. It returns immediately; completion is observed through
// Wait/Test. Local destinations take the one-copy shared-memory path;
// messages above the large threshold use the rendezvous pull protocol;
// everything else is sent eagerly.
func (ep *Endpoint) ISend(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, off, n int) *Request {
	r := &Request{ep: ep, dst: dst, MatchInfo: match, buf: buf, off: off, n: n}
	switch {
	case dst.Host == ep.S.H.Name:
		ep.localSend(p, r)
	case n > ep.S.Cfg.LargeThreshold:
		ep.rndvSend(p, r)
	default:
		ep.eagerSendOp(p, r)
	}
	return r
}

// IRecv posts a receive of up to n bytes into buf[off:] for messages
// whose match value equals match under mask. Unexpected messages that
// already arrived are matched (and consumed) first, in arrival order.
func (ep *Endpoint) IRecv(p *sim.Proc, match, mask uint64, buf *hostmem.Buffer, off, n int) *Request {
	ep.core().RunOn(p, cpu.UserLib, sim.Duration(ep.S.H.P.OMXLibPickupCost))
	r := &Request{ep: ep, isRecv: true, match: match, mask: mask, buf: buf, off: off, n: n}

	// Unexpected queue first (arrival order).
	for i, u := range ep.ux {
		if !proto.Matches(match, mask, u.match) {
			continue
		}
		ep.ux = append(ep.ux[:i], ep.ux[i+1:]...)
		switch u.kind {
		case uxEager:
			n := min(u.msgLen, r.n)
			if n > 0 {
				d := ep.S.H.Copy.Memcpy(r.buf, r.off, u.tmp, 0, n, ep.Core)
				ep.core().RunOn(p, cpu.UserLib, d)
			}
			ep.completeRecv(r, u.src, u.match, n)
		case uxRndv:
			ep.startPull(p, r, u)
		case uxLocal:
			ep.localPull(p, r, u.lm)
		}
		return r
	}

	// In-progress unexpected assemblies may be claimed by a new post.
	// Candidate selection must not depend on Go map iteration order:
	// with several matching partial messages (wildcard masks under
	// reordering), the lowest (source, sequence) wins, keeping runs
	// bit-reproducible.
	var claim *assembly
	for _, c := range ep.rxChans {
		for _, a := range c.asm {
			if a.dst == nil && proto.Matches(match, mask, a.match) && (claim == nil || proto.ClaimBefore(a.src, a.seq, claim.src, claim.seq)) {
				claim = a
			}
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
// in-progress assembly from its temporary storage into the posted
// receive, following proto.CopyPlan: a contiguous prefix (the
// loss-free case) moves as one memcpy; with holes — retransmission or
// cross-NIC skew still in flight — each arrived fragment is copied at
// its own offset, because a prefix copy would silently drop data that
// arrived beyond the first hole and will never be retransmitted.
func (ep *Endpoint) claimArrived(p *sim.Proc, r *Request, a *assembly) {
	limit := min(a.msgLen, r.n)
	for _, run := range proto.CopyPlan(a.Got, a.Arrived, proto.MediumFragSize, limit, true) {
		d := ep.S.H.Copy.Memcpy(r.buf, r.off+run.Off, a.tmp, run.Off, run.N, ep.Core)
		ep.core().RunOn(p, cpu.UserLib, d)
	}
}

// Wait blocks p until r completes, running the library progress engine
// (event processing, matching, eager copies) on the endpoint's core.
func (ep *Endpoint) Wait(p *sim.Proc, r *Request) {
	for !r.done {
		if !ep.Progress(p) {
			p.WaitFor(ep.evSig, func() bool { return len(ep.evq) > 0 })
		}
	}
}

// Test reports whether r completed, after a zero-cost progress pass
// over already-queued events.
func (ep *Endpoint) Test(p *sim.Proc, r *Request) bool {
	ep.Progress(p)
	return r.done
}

// Progress drains the endpoint's event queue, charging library CPU
// time per event. It reports whether any event was processed.
func (ep *Endpoint) Progress(p *sim.Proc) bool {
	if len(ep.evq) == 0 {
		return false
	}
	for len(ep.evq) > 0 {
		ev := ep.evq[0]
		ep.evq = ep.evq[1:]
		ep.core().RunOn(p, cpu.UserLib, sim.Duration(ep.S.H.P.OMXLibPickupCost))
		ep.handleEvent(p, ev)
	}
	return true
}

func (ep *Endpoint) handleEvent(p *sim.Proc, ev *event) {
	switch ev.kind {
	case evEagerFrag:
		ep.handleEagerFrag(p, ev)
	case evRndv:
		ep.handleRndv(p, ev)
	case evLargeDone:
		d := ep.S.UnpinCost(ev.req.buf, ev.req.n)
		if d > 0 {
			ep.core().RunOn(p, cpu.DriverCmd, d)
		}
		ev.req.done = true
	case evSendDone:
		d := ep.S.UnpinCost(ev.req.buf, ev.req.n)
		if d > 0 {
			ep.core().RunOn(p, cpu.DriverCmd, d)
		}
		ev.req.done = true
	case evEagerAcked:
		for _, r := range ev.reqs {
			r.done = true
		}
	case evLocalMsg:
		ep.handleLocalMsg(p, ev)
	case evLocalDone:
		ev.req.done = true
	}
}

// handleEagerFrag is the library half of eager reception: dedup,
// match, copy out of the receive ring (the second copy of the paper's
// Figure 2), reassemble, complete.
func (ep *Endpoint) handleEagerFrag(p *sim.Proc, ev *event) {
	c := ep.rxChan(ev.src)
	if c.IsDup(ev.seq) {
		// Duplicate of a fully received message that slipped past the
		// driver check (completed between BH and library processing):
		// drop payload, make sure an ack goes out.
		ep.releaseSlot(ev)
		ep.S.Stats.DupFrags++
		ep.forceAck(c)
		return
	}
	a := c.asm[ev.seq]
	if a == nil {
		a = &assembly{Reassembly: proto.Reassembly{Frags: ev.fragCnt}, src: ev.src, seq: ev.seq, match: ev.match, msgLen: ev.msgLen}
		// Match against posted receives at first sight of the message.
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
		proto.Insert(&c.asm, ev.seq, a)
	}
	if !a.Mark(ev.fragID) {
		ep.releaseSlot(ev)
		ep.S.Stats.DupFrags++
		return
	}

	// Copy the payload to its destination (user buffer if matched,
	// temporary storage otherwise).
	dstBuf, dstOff := a.tmp, ev.offset
	limit := ev.msgLen
	if a.dst != nil {
		dstBuf, dstOff = a.dst.buf, a.dst.off+ev.offset
		limit = min(ev.msgLen, a.dst.n)
	}
	n := ev.dataLen
	if ev.offset+n > limit {
		n = limit - ev.offset // truncated receive
	}
	if n > 0 && dstBuf != nil {
		var d sim.Duration
		if ev.inline != nil {
			dstBuf.WriteAt(ev.inline[:n], dstOff)
			d = ep.S.H.Copy.RawTime(n, ep.S.H.P.MemcpyL2Rate)
			dstBuf.Touch(ep.Core, n)
		} else {
			d = ep.S.H.Copy.Memcpy(dstBuf, dstOff, ep.ring, ep.slotOff(ev.slot), n, ep.Core)
		}
		ep.core().RunOn(p, cpu.UserLib, d)
	}
	ep.releaseSlot(ev)

	if a.Done() {
		delete(c.asm, ev.seq)
		c.Complete(ev.seq)
		if a.dst != nil {
			ep.completeRecv(a.dst, a.src, a.match, min(a.msgLen, a.dst.n))
		} else {
			ep.ux = append(ep.ux, &uxMsg{kind: uxEager, src: a.src, match: a.match, seq: a.seq, msgLen: a.msgLen, tmp: a.tmp})
		}
		ep.scheduleAck(c)
	}
}

func (ep *Endpoint) releaseSlot(ev *event) {
	if ev.slot >= 0 {
		ep.freeSlot(ev.slot)
	}
}

func (ep *Endpoint) completeRecv(r *Request, src proto.Addr, match uint64, n int) {
	r.Len = n
	r.SenderAddr = src
	r.MatchInfo = match
	r.done = true
}

// handleRndv processes a rendezvous request event: record it in the
// channel sequence space (it consumes a sequence number for
// reliability), then match or queue it.
func (ep *Endpoint) handleRndv(p *sim.Proc, ev *event) {
	c := ep.rxChan(ev.src)
	if c.IsDup(ev.seq) {
		return // duplicate
	}
	c.Complete(ev.seq)
	ep.scheduleAck(c)
	u := &uxMsg{kind: uxRndv, src: ev.src, match: ev.match, seq: ev.seq, msgLen: ev.msgLen, handle: ev.handle}
	for i, r := range ep.posted {
		if proto.Matches(r.match, r.mask, ev.match) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			ep.startPull(p, r, u)
			return
		}
	}
	ep.ux = append(ep.ux, u)
}

// handleLocalMsg matches an intra-node message or queues it.
func (ep *Endpoint) handleLocalMsg(p *sim.Proc, ev *event) {
	for i, r := range ep.posted {
		if proto.Matches(r.match, r.mask, ev.lm.match) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			ep.localPull(p, r, ev.lm)
			return
		}
	}
	ep.ux = append(ep.ux, &uxMsg{kind: uxLocal, src: ev.lm.srcAddr, match: ev.lm.match, msgLen: ev.lm.n, lm: ev.lm})
}

// ---------------------------------------------------------------------
// Send paths (library side).
// ---------------------------------------------------------------------

// eagerSendOp sends tiny/small/medium messages: a system call, then
// per-fragment zero-copy skbuff builds in the driver. Completion comes
// with the (possibly piggybacked) cumulative ack.
func (ep *Endpoint) eagerSendOp(p *sim.Proc, r *Request) {
	s := ep.S
	tc := ep.txChan(r.dst)
	r.seq = tc.Next()
	frags := proto.MediumFragsOf(r.n)
	cost := sim.Duration(s.H.P.SyscallCost + int64(frags)*s.H.P.OMXTxBuildCost)
	ep.core().RunOn(p, cpu.DriverCmd, cost)
	s.transmitEager(ep, tc.Dst, r)
	tc.Sent(r.seq, r)
}

// transmitEager builds and transmits the fragment frames of one eager
// send (also used by retransmission).
func (s *Stack) transmitEager(ep *Endpoint, dst proto.Addr, r *Request) {
	frags := proto.MediumFragsOf(r.n)
	ack := ep.takeAck(dst)
	for f := 0; f < frags; f++ {
		fo, fl := proto.MediumFrag(r.n, f)
		// Fragments stripe across NIC lanes (reassembly is bitmap-based
		// and hole-aware, so cross-lane skew cannot corrupt anything).
		s.TransmitEager(s.LaneOf(r.seq, f), dst, proto.Eager{
			Src: ep.Addr(), Dst: dst,
			Match: r.MatchInfo, Seq: r.seq, MsgLen: r.n,
			FragID: f, FragCount: frags, Offset: fo,
			AckSeq: ack,
		}, r.buf, r.off+fo, fl)
	}
}

// resendEager is a channel's retransmission: rebuild and resend every
// unacked message. One timer, one softirq context: the rebuild runs
// on the primary NIC's interrupt core even though the fragments then
// re-stripe across lanes (transmitEager recomputes each fragment's
// lane).
func (ep *Endpoint) resendEager(tc *proto.TxChan[*Request]) {
	s := ep.S
	var build int64
	for _, u := range tc.Unacked {
		build += int64(proto.MediumFragsOf(u.Data.n)) * s.H.P.OMXTxBuildCost
	}
	irq := s.H.Sys.Core(s.H.NIC.IRQCore)
	unacked := append([]*proto.Unacked[*Request](nil), tc.Unacked...)
	irq.Exec(cpu.BHProc, sim.Duration(build), func() {
		for _, u := range unacked {
			s.transmitEager(ep, tc.Dst, u.Data)
		}
	})
}

// rndvSend starts a large-message send: pin the buffer (registration
// cache permitting), lend it to the stack until the receiver's
// RndvAck (pull replies carry views of it), register a sender handle,
// transmit the rendezvous request.
func (ep *Endpoint) rndvSend(p *sim.Proc, r *Request) {
	s := ep.S
	tc := ep.txChan(r.dst)
	r.seq = tc.Next()
	cost := sim.Duration(s.H.P.SyscallCost+s.H.P.OMXTxBuildCost) + s.PinCost(r.buf, r.n, s.H.P.PinPerPage)
	ep.core().RunOn(p, cpu.DriverCmd, cost)

	r.buf.Lend()
	s.nextHandle++
	ls := &largeSend{ep: ep, req: r, RndvSend: proto.RndvSend{
		Handle: s.nextHandle, Dst: r.dst, Seq: r.seq, Buf: r.buf, Off: r.off, N: r.n,
	}}
	proto.Insert(&s.sends, ls.Handle, ls)
	s.StartRndv(&ls.RndvSend, ls.transmitRequest)
}

// transmitRequest sends the rendezvous request, piggybacking the
// channel's cumulative ack.
func (ls *largeSend) transmitRequest() {
	s := ls.ep.S
	s.TransmitOn(s.LaneOf(ls.Seq, 0), ls.Dst, &proto.RndvRequest{
		Src: ls.ep.Addr(), Dst: ls.Dst,
		Match: ls.req.MatchInfo, Seq: ls.Seq, MsgLen: ls.N,
		SenderHandle: ls.Handle,
		AckSeq:       ls.ep.takeAck(ls.Dst),
	}, nil)
}

// startPull is the receiver-side system call that launches the pull
// protocol once a rendezvous matched: pin the destination, create the
// pull state, request the first pipelined blocks.
func (ep *Endpoint) startPull(p *sim.Proc, r *Request, u *uxMsg) {
	s := ep.S
	n := min(u.msgLen, r.n)
	cost := sim.Duration(s.H.P.SyscallCost) + s.PinCost(r.buf, n, s.H.P.PinPerPage)
	ep.core().RunOn(p, cpu.DriverCmd, cost)

	s.nextHandle++
	lp := &largePull{ep: ep, req: r, RndvPull: proto.RndvPull{
		Handle: s.nextHandle, Local: ep.Addr(), Src: u.src, SenderHandle: u.handle,
		Key: proto.RndvKey{Src: u.src, Dst: ep.ID, Seq: u.seq},
		Buf: r.buf, Off: r.off, N: n,
	}}
	s.StartPull(&lp.RndvPull, s.Cfg.PullBlockFrags, s.Cfg.PullBlocks, s.adaptiveWin, lp.retryBlock)
	lp.useIOAT = s.Cfg.IOAT && !s.Cfg.SkipBHCopy && n >= s.Cfg.IOATMinMsg && proto.LargeFragSize >= s.Cfg.IOATMinFrag
	if lp.useIOAT {
		// One DMA channel per NIC lane: a striped message overlaps its
		// lanes' copies on distinct channels (a single-NIC message keeps
		// the paper's one-channel-per-message assignment).
		for i := 0; i < s.Lanes; i++ {
			lp.chs = append(lp.chs, s.H.IOAT.PickChannel())
		}
		lp.lastSeq = make([]uint64, s.Lanes)
	}
	lp.lastWin = lp.Window()
	r.MatchInfo = u.match
	r.SenderAddr = u.src
	proto.Insert(&s.pulls, lp.Handle, lp)

	for b := 0; b < lp.Window() && lp.More(); b++ {
		s.pullNext(lp)
	}
}
