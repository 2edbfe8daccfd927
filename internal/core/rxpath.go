package core

import (
	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/nic"
	"omxsim/internal/proto"
	"omxsim/platform"
	"omxsim/sim"
)

// rxCallback is the Open-MX receive callback, invoked by a NIC's
// bottom half for every incoming frame (the paper's Figure 2/5/6
// context). It runs in softirq context on that NIC's interrupt core —
// each lane of a multi-NIC host drains on its own core — and all CPU
// it consumes is accounted as BHProc/BHCopy. lane identifies the NIC
// the frame arrived on: replies that must stay on the same physical
// path (pull-answering data) use it.
func (s *Stack) rxCallback(lane int, p *sim.Proc, core *cpu.Core, skb *nic.Skb) {
	t0 := p.Now()
	s.maybeSteer(t0)
	core.RunOn(p, cpu.BHProc, sim.Duration(s.H.P.OMXRecvCallbackCost))
	if s.Trace != nil {
		if m, ok := skb.Frame.Msg.(*proto.LargeFrag); ok {
			s.Trace(proto.TraceEvent{Kind: "process", Frag: m.FragID, Start: t0, End: p.Now()})
		}
	}
	switch m := skb.Frame.Msg.(type) {
	case *proto.Eager:
		s.rxEager(p, core, skb, m)
	case *proto.Ack:
		s.applyAck(p, core, m.Src.EP, m.Dst, m.AckSeq)
		skb.Free()
	case *proto.RndvRequest:
		s.rxRndv(p, core, skb, m)
	case *proto.Pull:
		s.rxPull(lane, p, core, skb, m)
	case *proto.LargeFrag:
		s.rxLargeFrag(lane, p, core, skb, m)
	case *proto.RndvAck:
		s.rxRndvAck(p, core, skb, m)
	case *proto.CollData, *proto.CollAck:
		// Firmware-collective frames belong to NIC-resident state
		// machines the host stack does not run (the MXoE offload tier).
		// A host-mode peer can only receive one through
		// misconfiguration; count and drop so the sender's firmware
		// retransmission surfaces the mismatch instead of a hang going
		// unexplained.
		s.Stats.CollDropped++
		skb.Free()
	default:
		skb.Free()
	}
}

// chargeEvent accounts the cost of writing one completion event to the
// user-visible ring.
func (s *Stack) chargeEvent(p *sim.Proc, core *cpu.Core) {
	core.RunOn(p, cpu.BHProc, sim.Duration(s.H.P.OMXEventCost))
}

// applyAck advances a tx channel's cumulative ack (from an explicit
// ack frame or a piggybacked AckSeq) and hands completed sends to the
// library. Stale and duplicate acks are ignored (serial arithmetic,
// so the channel survives sequence wraparound).
func (s *Stack) applyAck(p *sim.Proc, core *cpu.Core, epID int, from proto.Addr, ackSeq uint32) {
	ep := s.endpoints[epID]
	if ep == nil || ackSeq == 0 {
		return
	}
	tc := ep.txChans[from]
	if tc == nil {
		return
	}
	acked := tc.applyCumulative(ackSeq)
	if len(tc.unacked) == 0 {
		tc.rtx.Stop()
		tc.rtx = sim.Timer{}
	}
	if len(acked) > 0 {
		// The newest never-retransmitted send the ack covers is a clean
		// round-trip sample (Karn's rule skips retransmitted ones).
		now := s.H.E.Now()
		sample := sim.Duration(-1)
		done := make([]*Request, 0, len(acked))
		for _, es := range acked {
			done = append(done, es.req)
			if !es.rtxed {
				sample = now - es.sentAt
			}
			if s.Trace != nil {
				s.Trace(proto.TraceEvent{Kind: "eager", Frag: -1, Seq: es.seq, Lane: s.LaneOf(es.seq, 0), Start: es.sentAt, End: now})
			}
		}
		if sample >= 0 {
			s.ObserveRTT(from, sample)
		}
		s.chargeEvent(p, core)
		ep.pushEvent(&event{kind: evEagerAcked, reqs: done})
	}
}

// rxEager handles a tiny/small/medium fragment: copy it into the
// endpoint's statically pinned receive ring (first copy of Figure 2) —
// by memcpy, or synchronously through I/OAT when IOATSyncMedium is set
// (the paper's measured regression) — then report a per-fragment event.
func (s *Stack) rxEager(p *sim.Proc, core *cpu.Core, skb *nic.Skb, m *proto.Eager) {
	defer skb.Free()
	s.applyAck(p, core, m.Dst.EP, m.Src, m.AckSeq)
	ep := s.endpoints[m.Dst.EP]
	if ep == nil {
		return
	}
	// Driver-level duplicate suppression: retransmissions of messages
	// the stack has already fully received are dropped here (no ring
	// slot, no event) and the ack is refreshed — the sender clearly
	// never saw it. This must not depend on the application calling
	// into the library: acks are a transport responsibility.
	ch := ep.rxChan(m.Src)
	if ch.isDup(m.Seq) {
		s.Stats.DupFrags++
		ep.forceAck(ch)
		return
	}
	if ch.fragSeenBefore(m.Seq, m.FragID) {
		// A retransmitted fragment of a message still assembling:
		// the original already holds a ring slot and queued its
		// event, so this copy must not consume either.
		s.Stats.DupFrags++
		return
	}
	n := skb.Len()
	ev := &event{
		kind: evEagerFrag, src: m.Src, match: m.Match, seq: m.Seq,
		msgLen: m.MsgLen, fragID: m.FragID, fragCnt: m.FragCount,
		offset: m.Offset, slot: -1, dataLen: n,
	}
	switch {
	case m.MsgLen <= proto.TinyMax && m.FragCount == 1:
		// Tiny: payload rides inline in the event; the copy is the
		// event write itself.
		ch.markFrag(m.Seq, m.FragID)
		if n > 0 {
			ev.inline = make([]byte, n)
			skb.Buf.ReadAt(ev.inline, 0)
			if !s.Cfg.SkipBHCopy {
				core.RunOn(p, cpu.BHCopy, s.H.Copy.RawTime(n, bhTinyRate(s)))
			}
		}
	default:
		slot := ep.allocSlot()
		if slot < 0 {
			s.Stats.RingDrops++
			return // dropped (and not recorded); retransmission recovers
		}
		ch.markFrag(m.Seq, m.FragID)
		ev.slot = slot
		off := ep.slotOff(slot)
		switch {
		case s.Cfg.SkipBHCopy:
			hostmem.Copy(ep.ring, off, skb.Buf, 0, n)
		case s.Cfg.IOATSyncMedium && n >= s.Cfg.IOATMinFrag:
			// Synchronous offload: submit, then busy-poll completion.
			// All fragment copies of small/medium messages must be
			// synchronous because each fragment raises its own event
			// (Section III-C).
			s.ioatSyncCopy(p, core, cpu.BHCopy, ep, slot, skb, n)
		default:
			d := s.H.Copy.Memcpy(ep.ring, off, skb.Buf, 0, n, core.ID)
			core.RunOn(p, cpu.BHCopy, d)
		}
	}
	s.chargeEvent(p, core)
	ep.pushEvent(ev)
}

// bhTinyRate is the effective tiny-copy rate in the bottom half
// (cold memcpy with the DMA snoop penalty).
func bhTinyRate(s *Stack) platform.Rate {
	return platform.Rate(float64(s.H.P.MemcpyColdRate) * s.H.P.DMAColdPenalty)
}

// ioatSyncCopy performs one synchronous (blocking) I/OAT copy of a
// fragment into a receive-ring slot: submission cost, then the CPU
// busy-polls until the engine retires the descriptors.
func (s *Stack) ioatSyncCopy(p *sim.Proc, core *cpu.Core, cat cpu.Category, ep *Endpoint, slot int, skb *nic.Skb, n int) {
	off := ep.slotOff(slot)
	ndesc := s.H.IOAT.PageDescs(off, n)
	ch := s.H.IOAT.PickChannel()
	core.RunOn(p, cpu.IOATSubmit, s.H.IOAT.SubmitCost(ndesc))
	s.Stats.IOATSubmits += int64(ndesc)
	seq := ch.SubmitPages(ep.ring, off, skb.Buf, 0, n, nil)
	core.RunOnDyn(p, cat, func(finish func(extra sim.Duration)) {
		ch.NotifyAt(seq, func() { finish(s.H.IOAT.PollCost()) })
	})
}

// rxRndv handles a rendezvous request: deduplicate, then report it to
// the library for matching.
func (s *Stack) rxRndv(p *sim.Proc, core *cpu.Core, skb *nic.Skb, m *proto.RndvRequest) {
	defer skb.Free()
	s.applyAck(p, core, m.Dst.EP, m.Src, m.AckSeq)
	ep := s.endpoints[m.Dst.EP]
	if ep == nil {
		return
	}
	key := proto.RndvKey{Src: m.Src, Dst: m.Dst.EP, Seq: m.Seq}
	if sender, done, ok := s.RndvSeen(key); ok {
		if done {
			// We finished but our ack was lost: re-ack.
			s.Transmit(m.Src, &proto.RndvAck{Src: ep.Addr(), Dst: m.Src, SenderHandle: sender}, nil)
		}
		return // duplicate; pull timers drive recovery otherwise
	}
	s.RndvInsert(key, m.SenderHandle)
	s.chargeEvent(p, core)
	ep.pushEvent(&event{
		kind: evRndv, src: m.Src, match: m.Match, seq: m.Seq,
		msgLen: m.MsgLen, handle: m.SenderHandle,
	})
}

// rxPull runs on the data sender: build the requested fragments as
// zero-copy skbuffs referencing the pinned user pages (views of the
// lent send buffer), and transmit.
// The data answers on the lane the pull arrived on, so the block the
// receiver striped onto lane k streams back over lane k — the whole
// block's round trip stays on one physical path and the receiver's
// block-lane policy alone decides the aggregate spread.
func (s *Stack) rxPull(lane int, p *sim.Proc, core *cpu.Core, skb *nic.Skb, m *proto.Pull) {
	defer skb.Free()
	ls := s.sends[m.SenderHandle]
	if ls == nil {
		return // stale pull for a finished send
	}
	if !ls.sampled && ls.attempts == 0 {
		// First pull answers the (never-retransmitted) rendezvous
		// request: a clean request->pull round trip to the receiver.
		s.ObserveRTT(m.Src, s.H.E.Now()-ls.sentAt)
	}
	ls.sampled = true
	ls.pulled = true
	count := 0
	for i := 0; i < m.FragCount; i++ {
		if m.NeedMask&(1<<uint(i)) != 0 {
			count++
		}
	}
	if count == 0 {
		return
	}
	core.RunOn(p, cpu.BHProc, sim.Duration(int64(count)*s.H.P.OMXTxBuildCost))
	for i := 0; i < m.FragCount; i++ {
		if m.NeedMask&(1<<uint(i)) == 0 {
			continue
		}
		fragID := m.FirstFrag + i
		fo := fragID * proto.LargeFragSize
		fl := min(proto.LargeFragSize, ls.n-fo)
		if fl <= 0 {
			continue
		}
		s.TransmitOn(lane, m.Src, &proto.LargeFrag{
			Src: ls.ep.Addr(), Dst: m.Src,
			RecvHandle: m.RecvHandle, Block: m.Block,
			FragID: fragID, Offset: fo, MsgLen: ls.n,
		}, ls.buf.View(ls.off+fo, fl))
		s.Stats.LargeFragsSent++
	}
}

// rxLargeFrag is the heart of the paper: a large-message fragment
// arrives and must be copied into the (pinned) destination buffer.
// Without I/OAT the bottom half memcpys and only then releases the
// CPU (Figure 5). With I/OAT it submits asynchronous copies — to the
// arrival lane's DMA channel — and releases the CPU immediately; only
// the last fragment of the message waits for the engine (Figure 6),
// and on a striped message it waits for every lane's channel.
func (s *Stack) rxLargeFrag(lane int, p *sim.Proc, core *cpu.Core, skb *nic.Skb, m *proto.LargeFrag) {
	lp := s.pulls[m.RecvHandle]
	if lp == nil || lp.done {
		skb.Free()
		return
	}
	blk := lp.blocks[m.Block]
	if blk == nil {
		s.Stats.DupFrags++
		skb.Free()
		return
	}
	if !blk.asm.Mark(m.FragID - blk.firstFrag) {
		s.Stats.DupFrags++
		skb.Free()
		return
	}
	blk.attempts = 0 // fresh data: the sender is making progress
	lp.received++

	n := skb.Len()
	dstOff := lp.off + m.Offset
	last := lp.received == lp.frags

	switch {
	case s.Cfg.SkipBHCopy:
		hostmem.Copy(lp.buf, dstOff, skb.Buf, 0, n)
		skb.Free()
	case lp.useIOAT:
		// Optional hybrid: memcpy the head of the message to warm the
		// consumer's cache, offload the rest (Section V/VI).
		so := 0
		if warm := s.Cfg.HybridWarmupBytes; warm > 0 && m.Offset < warm {
			head := min(n, warm-m.Offset)
			d := s.H.Copy.Memcpy(lp.buf, dstOff, skb.Buf, 0, head, core.ID)
			core.RunOn(p, cpu.BHCopy, d)
			so = head
		}
		if so == n {
			skb.Free()
			break
		}
		// Asynchronous submission; the skbuff joins the pending pool
		// until the cleanup routine observes its copies retired.
		ndesc := s.H.IOAT.PageDescs(dstOff+so, n-so)
		t1 := p.Now()
		core.RunOn(p, cpu.IOATSubmit, s.H.IOAT.SubmitCost(ndesc))
		var onDone func()
		if s.Trace != nil {
			s.Trace(proto.TraceEvent{Kind: "submit", Frag: m.FragID, Start: t1, End: p.Now()})
			subEnd := p.Now()
			frag := m.FragID
			onDone = func() {
				s.Trace(proto.TraceEvent{Kind: "dma-copy", Frag: frag, Start: subEnd, End: s.H.E.Now()})
			}
		}
		s.Stats.IOATSubmits += int64(ndesc)
		ch := lp.chs[lane]
		seq := ch.SubmitPages(lp.buf, dstOff+so, skb.Buf, so, n-so, onDone)
		lp.lastSeq[lane] = seq
		lp.pending = append(lp.pending, pendingCopy{skb: skb, ch: ch, seq: seq})
	default:
		t1 := p.Now()
		d := s.H.Copy.Memcpy(lp.buf, dstOff, skb.Buf, 0, n, core.ID)
		core.RunOn(p, cpu.BHCopy, d)
		if s.Trace != nil {
			s.Trace(proto.TraceEvent{Kind: "memcpy", Frag: m.FragID, Start: t1, End: p.Now()})
		}
		skb.Free()
	}

	if blk.asm.Done() {
		blk.timer.Stop()
		delete(lp.blocks, m.Block)
		if s.Trace != nil {
			s.Trace(proto.TraceEvent{
				Kind: "pull", Frag: -1, Seq: lp.key.Seq, Block: blk.idx,
				Lane: s.LaneOf(lp.key.Seq, blk.idx), Window: s.pullWindow(lp),
				Start: blk.sentAt, End: p.Now(),
			})
		}
		if !blk.rtxed {
			// A clean block round trip: feed the peer's RTO estimator
			// and the transfer's window controller (which may also back
			// off here, on round-trip inflation).
			rtt := p.Now() - blk.sentAt
			s.ObserveRTT(lp.src, rtt)
			if lp.aw != nil {
				lp.aw.OnSample(rtt)
				s.traceCwnd(lp)
			}
		}
		// Refill the window: exactly one block on the static path (the
		// paper's one-for-one pipeline), the snapshot deficit after an
		// AIMD change. The count is fixed before the first RunOn yield —
		// a concurrent lane's completion during the yield must not
		// change how many blocks this completion issues.
		want := 1
		if lp.aw != nil {
			want = s.pullWindow(lp) - len(lp.blocks)
		}
		for i := 0; i < want && lp.nextBlock < lp.numBlocks; i++ {
			// "A resource cleanup routine is invoked when a new
			// request is sent" (Section III-B).
			core.RunOn(p, cpu.BHProc, sim.Duration(s.H.P.OMXTxBuildCost))
			if lp.nextBlock >= lp.numBlocks {
				break // a concurrent lane issued the tail during the yield
			}
			s.sendPullBlock(lp, lp.nextBlock, 0)
			lp.nextBlock++
			s.cleanup(p, core, lp)
		}
		s.TraceCounter("pull-queue", float64(len(lp.blocks)))
	}

	if last {
		if lp.useIOAT {
			// The last fragment's callback waits for the completion of
			// all asynchronous copies of this message (Figure 6), then
			// releases every pending skbuff. A striped message waits
			// for every lane's channel (one cookie poll each); the
			// single-NIC case is the paper's single-channel wait.
			waits := 0
			for _, sq := range lp.lastSeq {
				if sq > 0 {
					waits++
				}
			}
			tw := p.Now()
			core.RunOnDyn(p, cpu.BHCopy, func(finish func(extra sim.Duration)) {
				if waits == 0 {
					// Hybrid warmup copied everything by memcpy: one
					// cookie read confirms the channel idle, exactly
					// the pre-striping wait-on-sequence-zero cost.
					finish(s.H.IOAT.PollCost())
					return
				}
				left := waits
				for i, ch := range lp.chs {
					if lp.lastSeq[i] == 0 {
						continue
					}
					ch.NotifyAt(lp.lastSeq[i], func() {
						left--
						if left == 0 {
							finish(sim.Duration(waits) * s.H.IOAT.PollCost())
						}
					})
				}
			})
			if s.Trace != nil {
				s.Trace(proto.TraceEvent{Kind: "wait", Frag: m.FragID, Start: tw, End: p.Now()})
			}
			s.freeRetired(lp)
		}
		lp.done = true
		delete(s.pulls, lp.handle)
		s.RndvMarkDone(lp.key)
		lp.req.Len = lp.n
		if s.Trace != nil {
			s.Trace(proto.TraceEvent{
				Kind: "rndv", Frag: -1, Seq: lp.key.Seq,
				Window: s.pullWindow(lp), Start: lp.startedAt, End: p.Now(),
			})
		}
		tn := p.Now()
		s.chargeEvent(p, core)
		if s.Trace != nil {
			s.Trace(proto.TraceEvent{Kind: "notify", Frag: m.FragID, Start: tn, End: p.Now()})
		}
		lp.ep.pushEvent(&event{kind: evLargeDone, req: lp.req})
		s.Transmit(lp.src, &proto.RndvAck{Src: lp.ep.Addr(), Dst: lp.src, SenderHandle: lp.senderHandle}, nil)
	}
}

// cleanup is the paper's Section III-B routine: poll the DMA engine's
// completion cookie once and release every skbuff whose copies have
// retired, bounding the pending pool.
func (s *Stack) cleanup(p *sim.Proc, core *cpu.Core, lp *largePull) {
	if !lp.useIOAT || len(lp.pending) == 0 {
		return
	}
	core.RunOn(p, cpu.BHProc, s.H.IOAT.PollCost())
	s.freeRetired(lp)
}

// freeRetired releases pending skbuffs whose I/OAT sequence has been
// retired by the channel they were submitted on.
func (s *Stack) freeRetired(lp *largePull) {
	keep := lp.pending[:0]
	for _, pc := range lp.pending {
		if pc.seq <= pc.ch.Completed() {
			pc.skb.Free()
			s.Stats.CleanupFrees++
		} else {
			keep = append(keep, pc)
		}
	}
	clear(lp.pending[len(keep):])
	lp.pending = keep
}

// rxRndvAck completes a large send and returns its buffer. The
// receiver acks only after every copy out of the views has retired,
// and a stale duplicate fragment still in flight is dropped unread
// (pull handles are never reused), so the sender may write in place.
func (s *Stack) rxRndvAck(p *sim.Proc, core *cpu.Core, skb *nic.Skb, m *proto.RndvAck) {
	defer skb.Free()
	ls := s.sends[m.SenderHandle]
	if ls == nil {
		return
	}
	ls.finished = true
	ls.rtx.Stop()
	delete(s.sends, ls.handle)
	ls.buf.Return()
	s.chargeEvent(p, core)
	ls.ep.pushEvent(&event{kind: evSendDone, req: ls.req})
}

// sendPullBlock transmits one pull request. mask == 0 means "all
// fragments of the block"; nonzero masks are retransmissions. It arms
// (or re-arms) the block's retransmission timer. The request goes out
// on the block's stripe lane — the data comes back on the same lane
// (rxPull answers on the arrival lane), so round-robin block lanes
// keep every NIC of an aggregated link busy once the window is wide
// enough to have a block in flight per lane.
func (s *Stack) sendPullBlock(lp *largePull, blockIdx int, mask uint64) {
	firstFrag := blockIdx * s.Cfg.PullBlockFrags
	count := min(s.Cfg.PullBlockFrags, lp.frags-firstFrag)
	blk := lp.blocks[blockIdx]
	if blk == nil {
		blk = &pullBlock{idx: blockIdx, firstFrag: firstFrag, asm: proto.NewReassembly(count), sentAt: s.H.E.Now()}
		lp.blocks[blockIdx] = blk
	}
	if mask == 0 {
		mask = blk.asm.FullMask()
	}
	s.TransmitOn(s.LaneOf(lp.key.Seq, blockIdx), lp.src, &proto.Pull{
		Src: lp.ep.Addr(), Dst: lp.src,
		SenderHandle: lp.senderHandle, RecvHandle: lp.handle,
		Block: blockIdx, FirstFrag: firstFrag, FragCount: count,
		NeedMask: mask,
	}, nil)
	s.Stats.PullsSent++
	s.armBlockTimer(lp, blk)
}

// armBlockTimer (re)arms a pull block's retransmission timer: on
// expiry, re-request the missing fragments and run the cleanup routine
// (Section III-B: "this routine is also invoked when the
// retransmission timeout expires"). Consecutive expiries without any
// fragment arriving back off exponentially.
func (s *Stack) armBlockTimer(lp *largePull, blk *pullBlock) {
	blk.timer.Stop()
	blk.timer = s.H.E.Schedule(s.RtxTimeout(lp.src, blk.attempts), func() {
		if lp.done || blk.asm.Done() {
			return
		}
		blk.attempts++
		blk.rtxed = true
		s.Stats.PullRetransmits++
		s.TraceRetransmit(lp.key.Seq, blk.idx, s.LaneOf(lp.key.Seq, blk.idx))
		if lp.aw != nil {
			// The timeout is the loss signal: halve the window once per
			// loss epoch (the next clean sample reopens the epoch).
			lp.aw.OnLoss()
			s.traceCwnd(lp)
		}
		need := blk.asm.Missing()
		// The re-request builds on the stripe lane's interrupt core —
		// the core whose bottom half owns this block's traffic — so
		// retransmission cost under per-lane impairment is charged
		// where the lane's receive work already runs.
		irq := s.H.Sys.Core(s.H.NICs[s.LaneOf(lp.key.Seq, blk.idx)].IRQCore)
		irq.Exec(cpu.BHProc, sim.Duration(s.H.P.OMXTxBuildCost), func() {
			if lp.done || blk.asm.Done() {
				return
			}
			s.sendPullBlock(lp, blk.idx, need)
			// Cleanup on retransmission timeout, per the paper.
			if lp.useIOAT && len(lp.pending) > 0 {
				s.freeRetired(lp)
			}
		})
	})
}

// scheduleAck arms the deferred explicit-ack timer for a channel
// (piggybacking on reverse traffic usually wins the race and disarms
// it via takeAck).
func (ep *Endpoint) scheduleAck(c *rxChan) {
	if c.win.Edge() == c.lastAckSent || c.ackTimer.Pending() {
		return
	}
	ep.armAckTimer(c, false)
}

// forceAck re-arms the ack timer even when the cumulative ack was
// already sent once: a duplicate frame proves the sender lost it.
func (ep *Endpoint) forceAck(c *rxChan) {
	if c.ackTimer.Pending() {
		return
	}
	ep.armAckTimer(c, true)
}

func (ep *Endpoint) armAckTimer(c *rxChan, force bool) {
	s := ep.S
	c.ackTimer = s.H.E.Schedule(s.Cfg.DeferredAckDelay, func() {
		c.ackTimer = sim.Timer{}
		if !force && c.win.Edge() == c.lastAckSent {
			return
		}
		c.lastAckSent = c.win.Edge()
		s.Transmit(c.src, &proto.Ack{Src: c.src, Dst: ep.Addr(), AckSeq: c.win.Edge()}, nil)
		s.Stats.AcksSent++
	})
}
