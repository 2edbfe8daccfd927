package mxoe

import (
	"omxsim/internal/proto"
	"omxsim/sim"
)

// Firmware-level reliability for the native MX stack. The real
// Myri-10G firmware guarantees delivery below the host's sight: no
// interrupt, no kernel, no host CPU cycle is spent on acks or
// retransmission. The model mirrors that — every structure here is
// mutated in firmware context (frame arrival or timer expiry) and
// charges nothing to any core. On a clean link with a progressing
// receiver none of these timers ever fires and no extra frame is
// emitted, so the loss-free fast path is bit-identical to the
// unhardened stack.
//
// One deliberate asymmetry: the *initial* ack of an eager message is
// emitted when the receiving library processes the completion event
// (mxoe.go, handleEagerFrag), not at firmware deposit time — exactly
// where the unhardened stack emitted it, keeping clean-path wire
// timing unchanged. A receiver that stalls longer than the sender's
// timeout therefore costs at most one spurious retransmission, whose
// duplicate the firmware answers with an immediate ack of its own
// (fwEager's dup path) — after that the sender is quiet again.
//
// The wire protocol is the shared MXoE one (internal/proto), so the
// hardened firmware stays interoperable with Open-MX peers: cumulative
// acks use the same serial-number semantics as internal/core.

// mxTxChan is the firmware's per-(endpoint, peer) transmit
// reliability state: unacked eager messages and a retransmission
// timer with exponential backoff.
type mxTxChan struct {
	dst      proto.Addr
	nextSeq  uint32
	ackedSeq uint32
	unacked  []*mxUnacked
	rtx      sim.Timer
	attempts int
}

// mxUnacked snapshots one eager message's frames for retransmission
// (the NIC keeps the data; the host buffer was released at post).
type mxUnacked struct {
	seq   uint32
	msgs  []*proto.Eager
	loads [][]byte
	// sentAt is the first transmission time (the send -> cumulative-ack
	// round trip is an RTT sample); rtxed marks a retransmitted
	// message, never sampled (Karn's rule).
	sentAt sim.Time
	rtxed  bool
}

// next issues the channel's next sequence (skipping the "no ack"
// sentinel 0 on wraparound; see proto.NextSeq).
func (tc *mxTxChan) next() uint32 { return proto.NextSeq(&tc.nextSeq) }

// applyCumulative advances the cumulative ack, drops covered messages
// from the unacked list (returning them, oldest first, so the caller
// can take RTT samples) and resets the retransmission backoff. Stale
// or duplicate acks return nil and change nothing.
func (tc *mxTxChan) applyCumulative(ackSeq uint32) []*mxUnacked {
	if ackSeq == 0 || !proto.SeqAfter(ackSeq, tc.ackedSeq) {
		return nil
	}
	tc.ackedSeq = ackSeq
	tc.attempts = 0
	acked, keep := proto.TrimAcked(tc.unacked, func(u *mxUnacked) uint32 { return u.seq }, ackSeq)
	tc.unacked = keep
	return acked
}

// mxRxChan is the firmware's per-(endpoint, peer) receive window:
// the shared cumulative completion window plus per-message fragment
// bitmaps for duplicate suppression.
type mxRxChan struct {
	win proto.Window
	asm map[uint32]*fwAsm
}

// fwAsm tracks which fragments of one in-flight eager message the
// firmware has accepted.
type fwAsm struct {
	got     uint64
	arrived int
	cnt     int
}

// isDup reports whether seq was already fully received.
func (c *mxRxChan) isDup(seq uint32) bool { return c.win.IsDup(seq) }

// markComplete records seq as fully received and advances the
// cumulative edge.
func (c *mxRxChan) markComplete(seq uint32) { c.win.MarkComplete(seq) }

// mxTx returns (creating on demand) the firmware tx channel to dst.
func (ep *Endpoint) mxTx(dst proto.Addr) *mxTxChan {
	tc := ep.tx[dst]
	if tc == nil {
		tc = &mxTxChan{dst: dst}
		ep.tx[dst] = tc
	}
	return tc
}

// mxRx returns (creating on demand) the firmware rx window from src.
func (ep *Endpoint) mxRx(src proto.Addr) *mxRxChan {
	c := ep.rx[src]
	if c == nil {
		c = &mxRxChan{win: proto.NewWindow(), asm: make(map[uint32]*fwAsm)}
		ep.rx[src] = c
	}
	return c
}

// armEagerRtx (re)arms a channel's eager retransmission timer. On
// expiry the firmware re-streams every unacked message from its
// snapshot; receivers deduplicate.
func (ep *Endpoint) armEagerRtx(tc *mxTxChan) {
	if tc.rtx.Pending() || len(tc.unacked) == 0 {
		return
	}
	s := ep.S
	tc.rtx = s.H.E.Schedule(s.RtxTimeout(tc.dst, tc.attempts), func() {
		tc.rtx = sim.Timer{}
		if len(tc.unacked) == 0 {
			return
		}
		tc.attempts++
		s.Stats.EagerRetransmits++
		s.TraceRetransmit(tc.unacked[0].seq, -1, 0)
		for _, u := range tc.unacked {
			u.rtxed = true // Karn: never sample a retransmitted send
			for i, m := range u.msgs {
				// Same lane as the original fragment, so a lossy
				// lane retries on itself and stays attributable.
				s.TransmitOn(s.LaneOf(u.seq, m.FragID), tc.dst, m, u.loads[i])
			}
		}
		ep.armEagerRtx(tc)
	})
}

// armRndvRtx watches a rendezvous send: with no pull progress since
// the last expiry it re-sends the request (the receiver deduplicates
// and, if the transfer already finished, re-acks).
func (s *Stack) armRndvRtx(ms *mxSend) {
	ms.rtx = s.H.E.Schedule(s.RtxTimeout(ms.dst, ms.attempts), func() {
		if ms.finished {
			return
		}
		if !ms.pulled {
			ms.attempts++
			s.Stats.RndvRetransmits++
			s.TraceRetransmit(ms.seq, -1, s.LaneOf(ms.seq, 0))
			s.TransmitOn(s.LaneOf(ms.seq, 0), ms.dst, &proto.RndvRequest{
				Src: ms.ep.Addr(), Dst: ms.dst,
				Match: ms.req.MatchInfo, Seq: ms.seq, MsgLen: ms.n,
				SenderHandle: ms.handle,
			}, nil)
		} else {
			ms.attempts = 0
		}
		ms.pulled = false
		s.armRndvRtx(ms)
	})
}

// mxBlock is one outstanding pull block on the receiver: the
// hole-aware accepted-fragment bitmap (arrival order is arbitrary
// once blocks stripe across NICs) and the retransmission timer that
// re-requests the rest.
type mxBlock struct {
	idx       int
	firstFrag int
	asm       proto.Reassembly
	timer     sim.Timer
	attempts  int
	// sentAt is the first request time (the request -> completion
	// round trip is an RTT sample); rtxed marks a retried block, never
	// sampled (Karn's rule).
	sentAt sim.Time
	rtxed  bool
}

// armBlockTimer (re)arms a pull block's retransmission timer: on
// expiry the firmware re-requests the block's missing fragments.
func (s *Stack) armBlockTimer(lp *mxPull, blk *mxBlock) {
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
		}
		s.sendPull(lp, blk, blk.asm.Missing())
	})
}

// sendPull transmits one pull request for the masked fragments of a
// block — on the block's stripe lane, where the data answers — and
// arms its retransmission timer.
func (s *Stack) sendPull(lp *mxPull, blk *mxBlock, mask uint64) {
	s.TransmitOn(s.LaneOf(lp.key.Seq, blk.idx), lp.src, &proto.Pull{
		Src: lp.ep.Addr(), Dst: lp.src,
		SenderHandle: lp.senderHandle, RecvHandle: lp.handle,
		Block: blk.idx, FirstFrag: blk.firstFrag, FragCount: blk.asm.Frags,
		NeedMask: mask,
	}, nil)
	s.armBlockTimer(lp, blk)
}
