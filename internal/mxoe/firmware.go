package mxoe

import (
	"math/bits"

	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// mxBlockFrags is the firmware pull window block size (fragments per
// pull request; bounded by the 64-bit NeedMask, and two blocks are
// kept outstanding like the host stack).
const mxBlockFrags = 32

// FirmwareRx handles every incoming frame in NIC firmware: no
// interrupt, no bottom half, no host CPU. Data movement happens by NIC
// DMA whose latency is modelled; everything else is "free" for the
// host, which is exactly what makes native MX the paper's baseline.
// Reliability — duplicate suppression, cumulative acks, retransmission
// — also lives here, below the host's sight, as on real Myri-10G
// boards. lane is the NIC the frame arrived on: pull requests are
// answered on it, so the requester's block striping decides which
// lanes of an aggregated link carry the bulk data. The firmware
// releases the frame's delivery once it has handled the frame: a
// deposited eager or pull reply fragment once its DMA has landed (see
// fwDeposit), a collective frame parked for a later CollJoin at the
// join, anything else before FirmwareRx returns.
func (s *Stack) FirmwareRx(lane int, f *wire.Frame) {
	switch m := f.Msg.(type) {
	case *proto.Eager:
		if s.fwEager(f, m) {
			return
		}
	case *proto.Ack:
		s.fwAck(m)
	case *proto.RndvRequest:
		s.fwRndv(m)
	case *proto.Pull:
		s.fwPull(lane, m)
	case *proto.LargeFrag:
		if s.fwLargeFrag(f, m) {
			return
		}
	case *proto.RndvAck:
		s.fwRndvAck(m)
	case *proto.CollData:
		if s.fwCollData(f, m) {
			return
		}
	case *proto.CollAck:
		s.fwCollAck(m)
	}
	f.Release()
}

// dmaDelay is the NIC-to-host deposit time for n payload bytes.
func (s *Stack) dmaDelay(n int) sim.Duration {
	return sim.Duration(s.H.P.NICFixedLatency) + sim.Duration(float64(n)/float64(s.H.P.NICDMARate))
}

// dmaDelayTo is dmaDelay against a specific destination buffer: a
// deposit into pages homed on the remote socket pays the platform's
// extra descriptor cost and drains at the reduced cross-socket rate.
func (s *Stack) dmaDelayTo(buf *hostmem.Buffer, n int) sim.Duration {
	p := s.H.P
	home := buf.HomeSocket()
	rate := float64(p.NICDMARate) / p.RemoteDMAFactor(home)
	return sim.Duration(p.NICFixedLatency+p.RemoteDMADescCost(home)) + sim.Duration(float64(n)/rate)
}

// deposit records a firmware DMA write into buf: pushed into the DCA
// target's LLC on a DCA-capable platform, plain cache-cold memory
// otherwise. ep is the consuming endpoint — native firmware knows the
// consumer and steers at its core.
func (s *Stack) deposit(ep *Endpoint, buf *hostmem.Buffer, n int) {
	if !s.H.P.HasDCA {
		buf.WrittenByDMA()
		return
	}
	buf.WrittenByDCA(ep.Core, n)
}

// fwAck applies a (cumulative) transport ack to the sending
// endpoint's channel, releasing retransmission snapshots.
func (s *Stack) fwAck(m *proto.Ack) {
	ep := s.endpoints[m.Src.EP]
	if ep == nil {
		return
	}
	if tc := ep.tx[m.Dst]; tc != nil {
		tc.Ack(m.AckSeq)
	}
}

// fwDeposit is one firmware DMA of a received frame into host
// memory: an eager fragment into its endpoint's receive queue, or a
// pull reply fragment into the transfer's destination. It holds the
// frame's delivery, and so its header, until the deposit lands: the
// firmware is the frame's last consumer. Then it releases the frame
// and goes back on its stack's free list.
type fwDeposit struct {
	s    *Stack
	f    *wire.Frame
	ep   *Endpoint // eager: the receiving endpoint
	slot int       // eager: the queue slot
	lp   *mxPull   // pull reply: the transfer
	next *fwDeposit
}

// newDeposit takes a deposit record for f from the free list, or
// makes one.
func (s *Stack) newDeposit(f *wire.Frame) *fwDeposit {
	d := s.depFree
	if d == nil {
		d = &fwDeposit{s: s}
	} else {
		s.depFree, d.next = d.next, nil
	}
	d.f = f
	return d
}

// done releases the deposited frame and frees the record, emptied so
// that a stale read panics.
func (d *fwDeposit) done() {
	s, f := d.s, d.f
	*d = fwDeposit{s: s, next: s.depFree}
	s.depFree = d
	f.Release()
}

// fwEager deposits an eager fragment into the endpoint's receive
// queue by DMA and raises a completion event; the library does the
// single copy to the destination after matching. The firmware's
// receive channel suppresses duplicates (re-acking completed messages,
// since a duplicate proves the sender missed the ack) and tracks
// per-message fragment bitmaps so retransmissions never
// double-deliver; the firmware completes a message in it as soon as
// its last fragment has a queue slot. It reports whether it kept the
// frame for the deposit.
func (s *Stack) fwEager(f *wire.Frame, m *proto.Eager) bool {
	ep := s.endpoints[m.Dst.EP]
	if ep == nil {
		return false
	}
	if m.AckSeq != 0 {
		s.fwAck(&proto.Ack{Src: m.Dst, Dst: m.Src, AckSeq: m.AckSeq})
	}
	ch := ep.mxRx(m.Src)
	if ch.IsDup(m.Seq) {
		s.Stats.DupFrags++
		// The sender clearly lost our ack: refresh it immediately.
		s.TransmitAck(m.Src, proto.Ack{Src: m.Src, Dst: ep.Addr(), AckSeq: ch.Edge()})
		return false
	}
	if ch.FragSeen(m.Seq, m.FragID) {
		s.Stats.DupFrags++
		return false
	}
	slot := ep.slots.Take()
	if slot < 0 {
		// Queue overrun: drop without recording the fragment; the
		// sender's retransmission timer recovers it.
		s.Stats.QueueDrops++
		return false
	}
	if ch.Accept(m.Seq, m.FragID, m.FragCount) {
		ch.Complete(m.Seq)
	}
	d := s.newDeposit(f)
	d.ep, d.slot = ep, slot
	firmwareMatch := sim.Duration(s.H.P.MXFirmwareMatchCost)
	s.H.E.ScheduleArg(firmwareMatch+s.dmaDelayTo(ep.ring, len(f.Data)), depositEager, d)
	return true
}

// depositEager lands an eager fragment in its queue slot and queues
// its event.
func depositEager(arg any) {
	d := arg.(*fwDeposit)
	s, ep, slot, f := d.s, d.ep, d.slot, d.f
	m := f.Msg.(*proto.Eager)
	n := len(f.Data)
	ep.ring.WriteAt(f.Data, ep.slotOff(slot))
	s.deposit(ep, ep.ring, n)
	ep.pushEvent(&event{
		kind: evEagerFrag, src: m.Src, match: m.Match, seq: m.Seq,
		msgLen: m.MsgLen, fragID: m.FragID, fragCnt: m.FragCount,
		offset: m.Offset, slot: slot, dataLen: n,
	})
	d.done()
}

// fwRndv raises a rendezvous event after firmware matching delay.
// Duplicate requests (the sender's request-retransmission racing a
// lost answer) are suppressed; if the transfer already finished, the
// final ack is re-sent instead.
func (s *Stack) fwRndv(m *proto.RndvRequest) {
	ep := s.endpoints[m.Dst.EP]
	if ep == nil {
		return
	}
	if m.AckSeq != 0 {
		s.fwAck(&proto.Ack{Src: m.Dst, Dst: m.Src, AckSeq: m.AckSeq})
	}
	if !s.AdmitRndv(m) {
		return
	}
	// A rendezvous consumes a sequence number on the eager channel so
	// cumulative acks can advance across it.
	ep.mxRx(m.Src).MarkComplete(m.Seq)
	s.H.E.Schedule(sim.Duration(s.H.P.MXFirmwareMatchCost), func() {
		ep.pushEvent(&event{kind: evRndv, src: m.Src, match: m.Match, seq: m.Seq,
			msgLen: m.MsgLen, handle: m.SenderHandle})
	})
}

// fwPull streams the requested fragments from the pinned user buffer,
// each frame a view of the lent buffer taken when it is sent, paced
// by the firmware's control overhead: this pacing is what puts
// native MX at ≈1140 MiB/s instead of the 1186 MiB/s line rate. The
// NeedMask selects which fragments of the block to send — all of them
// on the first request, the missing subset on retransmissions.
func (s *Stack) fwPull(lane int, m *proto.Pull) {
	ms := s.sends[m.SenderHandle]
	if ms == nil {
		return
	}
	s.PullArrived(&ms.RndvSend, m.Src)
	pc := s.pacerFree
	if pc == nil {
		pc = &fwPacer{s: s}
	} else {
		s.pacerFree, pc.next = pc.next, nil
	}
	pc.ms, pc.lane, pc.m = ms, lane, *m
	pc.left = m.NeedMask
	if m.FragCount < 64 {
		pc.left &= 1<<uint(m.FragCount) - 1
	}
	pc.step()
}

// fwPacer sends the fragments of one pull request one at a time. It
// keeps a copy of the request, whose frame the firmware releases as
// soon as fwPull returns, and goes back on its stack's free list once
// the last fragment is out or the reply went stale.
type fwPacer struct {
	s    *Stack
	ms   *mxSend
	lane int
	m    proto.Pull
	left uint64 // fragments of the block still to send
	next *fwPacer
}

// paceNext sends a pacer's next fragment.
func paceNext(arg any) { arg.(*fwPacer).step() }

// step sends the next fragment and schedules the one after it.
func (pc *fwPacer) step() {
	s, ms, m := pc.s, pc.ms, &pc.m
	// The receiver may complete (and the send return its buffer)
	// while a re-requested block is still being paced out: the rest
	// of that reply is stale and must not read the buffer.
	if pc.left == 0 || s.sends[m.SenderHandle] != ms {
		pc.free()
		return
	}
	i := bits.TrailingZeros64(pc.left)
	pc.left &^= 1 << uint(i)
	frag := m.FirstFrag + i
	fo := frag * proto.LargeFragSize
	fl := min(proto.LargeFragSize, ms.N-fo)
	if fl <= 0 {
		pc.free()
		return
	}
	// Answer on the lane the pull arrived on: the block stays on one
	// physical path end to end. The frame views the lent user buffer;
	// the NIC DMA reads it in place.
	s.TransmitFrag(pc.lane, m, ms.ep.Addr(), frag, ms.N, ms.Buf.View(ms.Off+fo, fl))
	s.Stats.FragsSent++
	if pc.left == 0 {
		pc.free()
		return
	}
	// Pace at wire time plus the control-overhead fraction.
	wireTime := float64(fl+s.H.P.OMXHeaderBytes+s.H.P.EthFrameOverhead) / float64(s.H.P.WireRate)
	gap := sim.Duration(wireTime * (1 + s.H.P.MXControlOverhead))
	s.H.E.ScheduleArg(gap, paceNext, pc)
}

// free puts the pacer back on its stack's free list, emptied.
func (pc *fwPacer) free() {
	s := pc.s
	*pc = fwPacer{s: s, next: s.pacerFree}
	s.pacerFree = pc
}

// fwLargeFrag deposits a pulled fragment directly into the pinned
// destination buffer — the zero-copy receive that commodity Ethernet
// NICs cannot do — and requests further blocks as transfers progress.
// Per-block bitmaps suppress duplicate fragments, and completed
// blocks retire their retransmission timers. It reports whether it
// kept the frame for the deposit.
func (s *Stack) fwLargeFrag(f *wire.Frame, m *proto.LargeFrag) bool {
	lp := s.pulls[m.RecvHandle]
	if lp == nil || lp.Done {
		return false
	}
	blk := s.AcceptFrag(&lp.RndvPull, m)
	if blk == nil {
		return false
	}
	if blk.Asm.Done() {
		s.CompleteBlock(&lp.RndvPull, blk)
		if lp.AW != nil {
			// Adaptive refill: top the window back up at completion
			// time (firmware context, no host cost). The static path
			// keeps its arrival-paced one-for-one refill below.
			for len(lp.Blocks) < lp.Window() && lp.More() {
				s.PullNext(&lp.RndvPull)
			}
		}
		s.TraceCounter("pull-queue", float64(len(lp.Blocks)))
	}
	d := s.newDeposit(f)
	d.lp = lp
	s.H.E.ScheduleArg(s.dmaDelayTo(lp.Buf, len(f.Data)), depositFrag, d)
	return true
}

// depositFrag lands a pulled fragment in the destination buffer and
// finishes the transfer with its last fragment.
func depositFrag(arg any) {
	d := arg.(*fwDeposit)
	s, lp, f := d.s, d.lp, d.f
	n := len(f.Data)
	lp.Buf.WriteAt(f.Data, lp.Off+f.Msg.(*proto.LargeFrag).Offset)
	s.deposit(lp.ep, lp.Buf, n)
	d.done()
	lp.deposited++
	// When another block's worth of fragments has landed, ask for
	// the next outstanding block (two are pipelined). Adaptive
	// transfers refill at block completion instead (above).
	if lp.AW == nil && lp.deposited%mxBlockFrags == 0 && lp.More() {
		s.PullNext(&lp.RndvPull)
	}
	if lp.deposited == lp.Frags {
		delete(s.pulls, lp.Handle)
		lp.req.Len = lp.N
		s.FinishPull(&lp.RndvPull)
		lp.ep.pushEvent(&event{kind: evRecvDone, req: lp.req})
		s.AckRndv(&lp.RndvPull)
	}
}

// fwRndvAck completes a large send, retires its request timer and
// returns its buffer: the receiver acks only once every fragment is
// deposited, so the sender may write in place again.
func (s *Stack) fwRndvAck(m *proto.RndvAck) {
	ms := s.sends[m.SenderHandle]
	if ms == nil {
		return
	}
	delete(s.sends, ms.Handle)
	s.FinishRndv(&ms.RndvSend)
	ms.ep.pushEvent(&event{kind: evSendDone, req: ms.req})
}
