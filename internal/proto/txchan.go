package proto

import "omxsim/sim"

// Unacked is one eager message its sender keeps until the peer's
// cumulative ack covers it. Data is what the stack needs to send the
// message again: Open-MX keeps the request and rebuilds the frames
// from the user buffer, the firmware keeps a copy of the frames.
type Unacked[P any] struct {
	Seq uint32
	// SentAt is the first transmission time (the send -> cumulative-ack
	// round trip is an RTT sample); Rtxed marks a retransmitted send,
	// never sampled (Karn's rule).
	SentAt sim.Time
	Rtxed  bool
	Data   P
}

// TxChan is the transmit half of one (endpoint, peer) channel: the
// sequence counter, the unacked eager messages and one retransmission
// timer that backs off while the peer shows no progress. On expiry
// it marks every unacked message retransmitted and calls the stack's
// resend, which puts them back on the wire; receivers deduplicate.
type TxChan[P any] struct {
	Dst Addr
	// Unacked holds the sends the peer has not acked, oldest first.
	Unacked []*Unacked[P]

	t        *Transport
	resend   func(*TxChan[P])
	expireFn func() // tc.expire, bound once
	nextSeq  uint32
	ackedSeq uint32
	rtx      sim.Timer
	attempts int // consecutive expiries without ack progress
}

// NewTxChan returns the channel to dst of a stack whose transport
// core is t. resend retransmits tc.Unacked when the timer expires.
func NewTxChan[P any](t *Transport, dst Addr, resend func(*TxChan[P])) *TxChan[P] {
	return NewTxChanAt(t, dst, resend, 0)
}

// NewTxChanAt is NewTxChan with the sequence counter and the acked
// edge at seq (tests start near the wraparound; channels start at 0).
func NewTxChanAt[P any](t *Transport, dst Addr, resend func(*TxChan[P]), seq uint32) *TxChan[P] {
	tc := &TxChan[P]{Dst: dst, t: t, resend: resend, nextSeq: seq, ackedSeq: seq}
	tc.expireFn = tc.expire
	return tc
}

// Edge is the channel's acked edge: the newest sequence the peer's
// cumulative acks have covered.
func (tc *TxChan[P]) Edge() uint32 { return tc.ackedSeq }

// Next issues the channel's next message sequence, skipping the "no
// ack" sentinel 0 on wraparound (see NextSeq).
func (tc *TxChan[P]) Next() uint32 { return NextSeq(&tc.nextSeq) }

// Sent records an eager message the stack just transmitted, counts it
// and arms the retransmission timer.
func (tc *TxChan[P]) Sent(seq uint32, data P) {
	tc.Unacked = append(tc.Unacked, &Unacked[P]{Seq: seq, SentAt: tc.t.H.E.Now(), Data: data})
	tc.t.ctr.EagerSent++
	tc.arm()
}

// arm starts the retransmission timer unless it runs already or
// nothing is unacked.
func (tc *TxChan[P]) arm() {
	if tc.rtx.Pending() || len(tc.Unacked) == 0 {
		return
	}
	tc.rtx = tc.t.H.E.Schedule(tc.t.RtxTimeout(tc.Dst, tc.attempts), tc.expireFn)
}

func (tc *TxChan[P]) expire() {
	tc.rtx = sim.Timer{}
	if len(tc.Unacked) == 0 {
		return
	}
	t := tc.t
	tc.attempts++
	t.ctr.EagerRetransmits++
	t.TraceRetransmit(tc.Unacked[0].Seq, -1, 0)
	for _, u := range tc.Unacked {
		u.Rtxed = true // Karn: never sample a retransmitted send
	}
	tc.resend(tc)
	tc.arm()
}

// ApplyCumulative advances the channel's acked edge to ackSeq and
// returns the sends it completes, oldest first. Stale and duplicate
// acks (ackSeq 0, or not after the edge in serial arithmetic) return
// nil and change nothing; an ack that does advance the edge also
// resets the retransmission backoff — the peer is alive. It is the
// pure state transition under Ack, and the surface the reliability
// fuzz target drives.
func (tc *TxChan[P]) ApplyCumulative(ackSeq uint32) []*Unacked[P] {
	if ackSeq == 0 || !SeqAfter(ackSeq, tc.ackedSeq) {
		return nil
	}
	tc.ackedSeq = ackSeq
	tc.attempts = 0
	acked, keep := TrimAcked(tc.Unacked, func(u *Unacked[P]) uint32 { return u.Seq }, ackSeq)
	tc.Unacked = keep
	return acked
}

// Ack applies a cumulative ack from the peer (an explicit Ack frame
// or a piggybacked AckSeq) and returns the sends it completes. The
// newest never-retransmitted one is a clean round-trip sample; every
// completed send closes its "eager" span; and the timer stops once
// nothing is unacked.
func (tc *TxChan[P]) Ack(ackSeq uint32) []*Unacked[P] {
	acked := tc.ApplyCumulative(ackSeq)
	if len(acked) > 0 {
		t := tc.t
		now := t.H.E.Now()
		sample := sim.Duration(-1)
		for _, u := range acked {
			if !u.Rtxed {
				sample = now - u.SentAt
			}
			if t.Trace != nil {
				t.Trace(TraceEvent{Kind: "eager", Frag: -1, Seq: u.Seq, Lane: t.LaneOf(u.Seq, 0), Start: u.SentAt, End: now})
			}
		}
		if sample >= 0 {
			t.ObserveRTT(tc.Dst, sample)
		}
	}
	if len(tc.Unacked) == 0 {
		tc.rtx.Stop()
		tc.rtx = sim.Timer{}
	}
	return acked
}
