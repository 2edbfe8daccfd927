package mxoe

import (
	"omxsim/internal/proto"
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

// eagerFrames is the snapshot of one eager message's frames that the
// firmware keeps in its transmit channel (proto.TxChan) and
// re-streams on retransmission: the NIC keeps the data, the host
// buffer was released at post.
type eagerFrames struct {
	msgs  []*proto.Eager
	loads [][]byte
}

// mxTx returns (creating on demand) the firmware tx channel to dst.
func (ep *Endpoint) mxTx(dst proto.Addr) *proto.TxChan[eagerFrames] {
	tc := ep.tx[dst]
	if tc == nil {
		tc = proto.NewTxChan(&ep.S.Transport, dst, ep.S.resendEager)
		proto.Insert(&ep.tx, dst, tc)
	}
	return tc
}

// mxRx returns (creating on demand) the firmware receive channel from
// src: the shared window and fragment dedup.
func (ep *Endpoint) mxRx(src proto.Addr) *proto.RxChan {
	c := ep.rx[src]
	if c == nil {
		c = &proto.RxChan{Window: proto.NewWindow()}
		proto.Insert(&ep.rx, src, c)
	}
	return c
}

// resendEager is a channel's retransmission: the firmware re-streams
// every unacked message from its snapshot, each fragment on the lane
// of the original, so a lossy lane retries on itself and stays
// attributable.
func (s *Stack) resendEager(tc *proto.TxChan[eagerFrames]) {
	for _, u := range tc.Unacked {
		for i, m := range u.Data.msgs {
			s.TransmitOn(s.LaneOf(u.Seq, m.FragID), tc.Dst, m, u.Data.loads[i])
		}
	}
}

// transmitRequest sends the rendezvous request of ms.
func (ms *mxSend) transmitRequest() {
	s := ms.ep.S
	s.TransmitOn(s.LaneOf(ms.Seq, 0), ms.Dst, &proto.RndvRequest{
		Src: ms.ep.Addr(), Dst: ms.Dst,
		Match: ms.req.MatchInfo, Seq: ms.Seq, MsgLen: ms.N,
		SenderHandle: ms.Handle,
	}, nil)
}

// retryBlock re-requests a timed-out block's missing fragments from
// firmware, at no host cost.
func (lp *mxPull) retryBlock(blk *proto.PullBlock) {
	lp.ep.S.SendPull(&lp.RndvPull, blk, blk.Asm.Missing())
}
