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

// firmwareRx handles every incoming frame in NIC firmware: no
// interrupt, no bottom half, no host CPU. Data movement happens by NIC
// DMA whose latency is modelled; everything else is "free" for the
// host, which is exactly what makes native MX the paper's baseline.
// Reliability — duplicate suppression, cumulative acks, retransmission
// — also lives here, below the host's sight, as on real Myri-10G
// boards. lane is the NIC the frame arrived on: pull requests are
// answered on it, so the requester's block striping decides which
// lanes of an aggregated link carry the bulk data.
func (s *Stack) firmwareRx(lane int, f *wire.Frame) {
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
		s.fwCollData(f, m)
	case *proto.CollAck:
		s.fwCollAck(m)
	}
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
// consumer and steers at its core unless Config.DCATargetCore
// overrides it.
func (s *Stack) deposit(ep *Endpoint, buf *hostmem.Buffer, n int) {
	if !s.H.P.HasDCA {
		buf.WrittenByDMA()
		return
	}
	target := ep.Core
	if s.Cfg.DCATargetCore > 0 {
		target = s.Cfg.DCATargetCore
	}
	buf.WrittenByDCA(target, n)
}

// fwAck applies a (cumulative) transport ack to the sending
// endpoint's channel, releasing retransmission snapshots.
func (s *Stack) fwAck(m *proto.Ack) {
	ep := s.endpoints[m.Src.EP]
	if ep == nil {
		return
	}
	tc := ep.tx[m.Dst]
	if tc == nil {
		return
	}
	acked := tc.applyCumulative(m.AckSeq)
	if len(acked) > 0 {
		// The newest never-retransmitted send the ack covers is a clean
		// round-trip sample (Karn's rule skips retransmitted ones).
		now := s.H.E.Now()
		sample := sim.Duration(-1)
		for _, u := range acked {
			if !u.rtxed {
				sample = now - u.sentAt
			}
			if s.Trace != nil {
				s.Trace(proto.TraceEvent{Kind: "eager", Frag: -1, Seq: u.seq, Lane: s.LaneOf(u.seq, 0), Start: u.sentAt, End: now})
			}
		}
		if sample >= 0 {
			s.ObserveRTT(m.Dst, sample)
		}
	}
	if len(tc.unacked) == 0 {
		tc.rtx.Stop()
		tc.rtx = sim.Timer{}
	}
}

// fwEager deposits an eager fragment into the endpoint's receive
// queue by DMA and raises a completion event; the library does the
// single copy to the destination after matching. The firmware window
// suppresses duplicates (re-acking completed messages, since a
// duplicate proves the sender missed the ack) and tracks per-message
// fragment bitmaps so retransmissions never double-deliver.
func (s *Stack) fwEager(f *wire.Frame, m *proto.Eager) {
	ep := s.endpoints[m.Dst.EP]
	if ep == nil {
		return
	}
	if m.AckSeq != 0 {
		s.fwAck(&proto.Ack{Src: m.Dst, Dst: m.Src, AckSeq: m.AckSeq})
	}
	ch := ep.mxRx(m.Src)
	if ch.isDup(m.Seq) {
		s.Stats.DupFrags++
		// The sender clearly lost our ack: refresh it immediately.
		s.Transmit(m.Src, &proto.Ack{Src: m.Src, Dst: ep.Addr(), AckSeq: ch.win.Edge()}, nil)
		return
	}
	a := ch.asm[m.Seq]
	if a == nil {
		a = &fwAsm{cnt: m.FragCount}
		ch.asm[m.Seq] = a
	}
	bit := uint64(1) << uint(m.FragID)
	if a.got&bit != 0 {
		s.Stats.DupFrags++
		return
	}
	if len(ep.freeSlots) == 0 {
		// Queue overrun: drop without recording the fragment; the
		// sender's retransmission timer recovers it.
		s.Stats.QueueDrops++
		return
	}
	a.got |= bit
	a.arrived++
	if a.arrived == a.cnt {
		delete(ch.asm, m.Seq)
		ch.markComplete(m.Seq)
	}
	slot := ep.freeSlots[len(ep.freeSlots)-1]
	ep.freeSlots = ep.freeSlots[:len(ep.freeSlots)-1]
	n := len(f.Data)
	firmwareMatch := sim.Duration(s.H.P.MXFirmwareMatchCost)
	s.H.E.Schedule(firmwareMatch+s.dmaDelayTo(ep.ring, n), func() {
		off := ep.slotOff(slot)
		ep.ring.WriteAt(f.Data, off)
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
	key := proto.RndvKey{Src: m.Src, Dst: m.Dst.EP, Seq: m.Seq}
	if sender, done, ok := s.RndvSeen(key); ok {
		if done {
			s.Transmit(m.Src, &proto.RndvAck{Src: ep.Addr(), Dst: m.Src, SenderHandle: sender}, nil)
		}
		return // in progress: pull-block timers drive recovery
	}
	s.RndvInsert(key, m.SenderHandle)
	// A rendezvous consumes a sequence number on the eager channel so
	// cumulative acks can advance across it.
	ep.mxRx(m.Src).markComplete(m.Seq)
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
	if !ms.sampled && ms.attempts == 0 {
		// First pull answers the (never-retransmitted) rendezvous
		// request: a clean request->pull round trip to the receiver.
		s.ObserveRTT(m.Src, s.H.E.Now()-ms.sentAt)
	}
	ms.sampled = true
	ms.pulled = true
	var frags []int
	for i := 0; i < m.FragCount; i++ {
		if m.NeedMask&(uint64(1)<<uint(i)) != 0 {
			frags = append(frags, m.FirstFrag+i)
		}
	}
	idx := 0
	var sendNext func()
	sendNext = func() {
		if idx >= len(frags) {
			return
		}
		frag := frags[idx]
		idx++
		fo := frag * proto.LargeFragSize
		fl := min(proto.LargeFragSize, ms.n-fo)
		if fl <= 0 {
			return
		}
		// Answer on the lane the pull arrived on: the block stays on
		// one physical path end to end. The frame views the lent user
		// buffer; the NIC DMA reads it in place.
		s.TransmitOn(lane, m.Src, &proto.LargeFrag{
			Src: ms.ep.Addr(), Dst: m.Src,
			RecvHandle: m.RecvHandle, Block: m.Block,
			FragID: frag, Offset: fo, MsgLen: ms.n,
		}, ms.buf.View(ms.off+fo, fl))
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
	if lp == nil || lp.done {
		return
	}
	blk := lp.blocks[m.Block]
	if blk == nil {
		s.Stats.DupFrags++
		return // block already completed: stale retransmission
	}
	if !blk.asm.Mark(m.FragID - blk.firstFrag) {
		s.Stats.DupFrags++
		return
	}
	blk.attempts = 0
	if blk.asm.Done() {
		blk.timer.Stop()
		delete(lp.blocks, m.Block)
		if s.Trace != nil {
			win := 2 * s.Lanes
			if lp.aw != nil {
				win = lp.aw.Window()
			}
			s.Trace(proto.TraceEvent{
				Kind: "pull", Frag: -1, Seq: lp.key.Seq, Block: blk.idx,
				Lane: s.LaneOf(lp.key.Seq, blk.idx), Window: win,
				Start: blk.sentAt, End: s.H.E.Now(),
			})
		}
		if !blk.rtxed {
			// A clean block round trip: feed the peer's RTO estimator
			// and the transfer's window controller.
			rtt := s.H.E.Now() - blk.sentAt
			s.ObserveRTT(lp.src, rtt)
			if lp.aw != nil {
				lp.aw.OnSample(rtt)
			}
		}
		if lp.aw != nil {
			// Adaptive refill: top the window back up at completion
			// time (firmware context, no host cost). The static path
			// keeps its arrival-paced one-for-one refill below.
			for len(lp.blocks) < lp.aw.Window() && lp.nextBlock*mxBlockFrags < lp.frags {
				s.pullNextBlock(lp)
			}
		}
		s.TraceCounter("pull-queue", float64(len(lp.blocks)))
	}
	n := len(f.Data)
	s.H.E.Schedule(s.dmaDelayTo(lp.buf, n), func() {
		dstOff := lp.off + m.Offset
		lp.buf.WriteAt(f.Data, dstOff)
		s.deposit(lp.ep, lp.buf, n)
		lp.arrived++
		// When another block's worth of fragments has landed, ask for
		// the next outstanding block (two are pipelined). Adaptive
		// transfers refill at block completion instead (above).
		if lp.aw == nil && lp.arrived%mxBlockFrags == 0 && lp.nextBlock*mxBlockFrags < lp.frags {
			s.pullNextBlock(lp)
		}
		if lp.arrived == lp.frags {
			lp.done = true
			for _, b := range lp.blocks {
				b.timer.Stop()
			}
			delete(s.pulls, lp.handle)
			s.RndvMarkDone(lp.key)
			lp.req.Len = lp.n
			if s.Trace != nil {
				win := 2 * s.Lanes
				if lp.aw != nil {
					win = lp.aw.Window()
				}
				s.Trace(proto.TraceEvent{
					Kind: "rndv", Frag: -1, Seq: lp.key.Seq,
					Window: win, Start: lp.startedAt, End: s.H.E.Now(),
				})
			}
			lp.ep.pushEvent(&event{kind: evRecvDone, req: lp.req})
			s.Transmit(lp.src, &proto.RndvAck{Src: lp.ep.Addr(), Dst: lp.src, SenderHandle: lp.senderHandle}, nil)
		}
	})
}

// pullNextBlock issues the next block's pull request from firmware
// and arms its retransmission timer.
func (s *Stack) pullNextBlock(lp *mxPull) {
	firstFrag := lp.nextBlock * mxBlockFrags
	if firstFrag >= lp.frags {
		return
	}
	count := min(mxBlockFrags, lp.frags-firstFrag)
	blk := &mxBlock{idx: lp.nextBlock, firstFrag: firstFrag, asm: proto.NewReassembly(count), sentAt: s.H.E.Now()}
	lp.blocks[lp.nextBlock] = blk
	lp.nextBlock++
	s.sendPull(lp, blk, blk.asm.FullMask())
}

// fwRndvAck completes a large send, retires its request timer and
// returns its buffer: the receiver acks only once every fragment is
// deposited, so the sender may write in place again.
func (s *Stack) fwRndvAck(m *proto.RndvAck) {
	ms := s.sends[m.SenderHandle]
	if ms == nil {
		return
	}
	ms.finished = true
	ms.rtx.Stop()
	delete(s.sends, ms.handle)
	ms.buf.Return()
	ms.ep.pushEvent(&event{kind: evSendDone, req: ms.req})
}
