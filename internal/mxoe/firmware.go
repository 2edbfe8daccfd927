package mxoe

import (
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
// releases the frame's delivery once it has handled the frame, except
// a collective frame parked for a later CollJoin, which the join
// releases.
func (s *Stack) FirmwareRx(lane int, f *wire.Frame) {
	switch m := f.Msg.(type) {
	case *proto.Eager:
		s.fwEager(f, m)
	case *proto.Ack:
		s.fwAck(m)
	case *proto.RndvRequest:
		s.fwRndv(m)
	case *proto.Pull:
		s.fwPull(lane, m)
	case *proto.LargeFrag:
		s.fwLargeFrag(f, m)
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

// fwEager deposits an eager fragment into the endpoint's receive
// queue by DMA and raises a completion event; the library does the
// single copy to the destination after matching. The firmware's
// receive channel suppresses duplicates (re-acking completed messages,
// since a duplicate proves the sender missed the ack) and tracks
// per-message fragment bitmaps so retransmissions never
// double-deliver; the firmware completes a message in it as soon as
// its last fragment has a queue slot.
func (s *Stack) fwEager(f *wire.Frame, m *proto.Eager) {
	ep := s.endpoints[m.Dst.EP]
	if ep == nil {
		return
	}
	if m.AckSeq != 0 {
		s.fwAck(&proto.Ack{Src: m.Dst, Dst: m.Src, AckSeq: m.AckSeq})
	}
	ch := ep.mxRx(m.Src)
	if ch.IsDup(m.Seq) {
		s.Stats.DupFrags++
		// The sender clearly lost our ack: refresh it immediately.
		s.Transmit(m.Src, &proto.Ack{Src: m.Src, Dst: ep.Addr(), AckSeq: ch.Edge()}, nil)
		return
	}
	if ch.FragSeen(m.Seq, m.FragID) {
		s.Stats.DupFrags++
		return
	}
	slot := ep.slots.Take()
	if slot < 0 {
		// Queue overrun: drop without recording the fragment; the
		// sender's retransmission timer recovers it.
		s.Stats.QueueDrops++
		return
	}
	if ch.Accept(m.Seq, m.FragID, m.FragCount) {
		ch.Complete(m.Seq)
	}
	data := f.Data // the DMA outlives the frame's delivery
	n := len(data)
	firmwareMatch := sim.Duration(s.H.P.MXFirmwareMatchCost)
	s.H.E.Schedule(firmwareMatch+s.dmaDelayTo(ep.ring, n), func() {
		off := ep.slotOff(slot)
		ep.ring.WriteAt(data, off)
		s.deposit(ep, ep.ring, n)
		ep.pushEvent(&event{
			kind: evEagerFrag, src: m.Src, match: m.Match, seq: m.Seq,
			msgLen: m.MsgLen, fragID: m.FragID, fragCnt: m.FragCount,
			offset: m.Offset, slot: slot, dataLen: n,
		})
	})
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
	var frags []int
	for i := 0; i < m.FragCount; i++ {
		if m.NeedMask&(uint64(1)<<uint(i)) != 0 {
			frags = append(frags, m.FirstFrag+i)
		}
	}
	idx := 0
	var sendNext func()
	sendNext = func() {
		// The receiver may complete (and the send return its buffer)
		// while a re-requested block is still being paced out: the
		// rest of that reply is stale and must not read the buffer.
		if idx >= len(frags) || s.sends[m.SenderHandle] != ms {
			return
		}
		frag := frags[idx]
		idx++
		fo := frag * proto.LargeFragSize
		fl := min(proto.LargeFragSize, ms.N-fo)
		if fl <= 0 {
			return
		}
		// Answer on the lane the pull arrived on: the block stays on
		// one physical path end to end. The frame views the lent user
		// buffer; the NIC DMA reads it in place.
		s.TransmitOn(lane, m.Src, &proto.LargeFrag{
			Src: ms.ep.Addr(), Dst: m.Src,
			RecvHandle: m.RecvHandle, Block: m.Block,
			FragID: frag, Offset: fo, MsgLen: ms.N,
		}, ms.Buf.View(ms.Off+fo, fl))
		s.Stats.FragsSent++
		if idx < len(frags) {
			// Pace at wire time plus the control-overhead fraction.
			wireTime := float64(fl+s.H.P.OMXHeaderBytes+s.H.P.EthFrameOverhead) / float64(s.H.P.WireRate)
			gap := sim.Duration(wireTime * (1 + s.H.P.MXControlOverhead))
			s.H.E.Schedule(gap, sendNext)
		}
	}
	sendNext()
}

// fwLargeFrag deposits a pulled fragment directly into the pinned
// destination buffer — the zero-copy receive that commodity Ethernet
// NICs cannot do — and requests further blocks as transfers progress.
// Per-block bitmaps suppress duplicate fragments, and completed
// blocks retire their retransmission timers.
func (s *Stack) fwLargeFrag(f *wire.Frame, m *proto.LargeFrag) {
	lp := s.pulls[m.RecvHandle]
	if lp == nil || lp.Done {
		return
	}
	blk := s.AcceptFrag(&lp.RndvPull, m)
	if blk == nil {
		return
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
	data := f.Data // the DMA outlives the frame's delivery
	n := len(data)
	s.H.E.Schedule(s.dmaDelayTo(lp.Buf, n), func() {
		dstOff := lp.Off + m.Offset
		lp.Buf.WriteAt(data, dstOff)
		s.deposit(lp.ep, lp.Buf, n)
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
	})
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
