package proto

import (
	"omxsim/internal/hostmem"
	"omxsim/sim"
)

// The rendezvous state machines, one copy for both stacks. The data
// sender keeps a RndvSend: the lent buffer the pull replies view and
// a watchdog that re-sends the request while no pull arrives. The
// receiver keeps a RndvPull: its outstanding PullBlocks, each with a
// hole-aware fragment bitmap and a retransmission timer that
// re-requests the missing fragments. Each stack embeds these in its
// own transfer records and supplies the one action its execution
// context changes — how a request or a re-request reaches the wire —
// as a function bound once per send or pull. Timers fire through
// package-level callbacks with the state as argument, so arming one
// allocates nothing.

// RndvSend is the sender side of one rendezvous. The stack fills the
// exported fields, then calls Transport.StartRndv.
type RndvSend struct {
	Handle int
	Dst    Addr
	Seq    uint32
	Buf    *hostmem.Buffer
	Off, N int

	t       *Transport
	request func() // transmits the rendezvous request
	// sentAt is when the request first went out: the request ->
	// first-pull round trip is an RTT sample unless the request was
	// retransmitted (Karn's rule).
	sentAt   sim.Time
	rtx      sim.Timer
	attempts int
	// pulled records a pull since the watchdog last fired. sampled
	// flags that the RTT sample was taken: pulled cannot double as
	// this, because the watchdog clears it to probe for progress.
	pulled, sampled bool
}

// StartRndv sends rs's rendezvous request through request, counts
// it, and starts the watchdog, which calls request again at every
// expiry with no pull since the previous one, backing off by the
// unanswered attempts.
func (t *Transport) StartRndv(rs *RndvSend, request func()) {
	rs.t = t
	rs.request = request
	rs.sentAt = t.H.E.Now()
	request()
	t.ctr.RndvSent++
	t.armRndv(rs)
}

func (t *Transport) armRndv(rs *RndvSend) {
	rs.rtx = t.H.E.ScheduleArg(t.RtxTimeout(rs.Dst, rs.attempts), expireRndv, rs)
}

// expireRndv is the rendezvous watchdog. No pull since the last
// expiry means the request (or everything since) was lost: re-send
// it. A pull resets the backoff; either way the watchdog then waits
// for further progress.
func expireRndv(arg any) {
	rs := arg.(*RndvSend)
	t := rs.t
	if !rs.pulled {
		rs.attempts++
		t.ctr.RndvRetransmits++
		t.TraceRetransmit(rs.Seq, -1, t.LaneOf(rs.Seq, 0))
		rs.request()
	} else {
		rs.attempts = 0
	}
	rs.pulled = false
	t.armRndv(rs)
}

// PullArrived records a pull for rs from the receiver at from. The
// first pull answers the request and is a clean RTT sample when the
// request was never retransmitted; it is taken at most once.
func (t *Transport) PullArrived(rs *RndvSend, from Addr) {
	if !rs.sampled && rs.attempts == 0 {
		t.ObserveRTT(from, t.H.E.Now()-rs.sentAt)
	}
	rs.sampled = true
	rs.pulled = true
}

// FinishRndv completes a send on the receiver's RndvAck: the watchdog
// stops and the buffer is returned to its owner, who may write it in
// place again (the receiver acks only after every copy out of the
// views retired).
func (t *Transport) FinishRndv(rs *RndvSend) {
	rs.rtx.Stop()
	rs.Buf.Return()
}

// RndvPull is the receiver side of one rendezvous. The stack fills
// the identity fields, then calls Transport.StartPull.
type RndvPull struct {
	Handle       int
	Local        Addr // the receiving endpoint
	Src          Addr // the data sender
	SenderHandle int
	Key          RndvKey
	Buf          *hostmem.Buffer
	Off, N       int

	Frags     int
	NextBlock int
	Blocks    map[int]*PullBlock // outstanding blocks by index
	Done      bool
	// AW is the transfer's AIMD window controller when the window is
	// adaptive; nil keeps the static window.
	AW *AIMDWindow

	t          *Transport
	retry      func(*PullBlock) // re-requests a timed-out block
	blockFrags int
	window     int // the static window in blocks
	startedAt  sim.Time
}

// PullBlock is one outstanding pull block: the hole-aware fragment
// bitmap (arrival order within a block is arbitrary once blocks
// stripe across NICs) and the timer that re-requests the rest.
type PullBlock struct {
	Idx       int
	FirstFrag int
	Asm       Reassembly

	pull     *RndvPull
	timer    sim.Timer
	attempts int // consecutive expiries without a fresh fragment
	// sentAt is the first request's transmit time (the block's round
	// trip is an RTT and AIMD sample); rtxed marks a re-requested
	// block, whose round trip is never sampled (Karn's rule).
	sentAt sim.Time
	rtxed  bool
}

// StartPull readies rp to pull in blocks of blockFrags fragments,
// window blocks outstanding — or, when adaptive, as many as the
// peer's AIMD controller allows. On a block timeout it takes the
// loss signal and calls retry, which must re-request the block's
// missing fragments (SendPull with blk.Asm.Missing()). The stack then
// issues the first blocks with PullNext.
func (t *Transport) StartPull(rp *RndvPull, blockFrags, window int, adaptive bool, retry func(*PullBlock)) {
	rp.t = t
	rp.retry = retry
	rp.blockFrags = blockFrags
	rp.window = window
	rp.Frags = FragsOf(rp.N)
	rp.Blocks = make(map[int]*PullBlock)
	if adaptive {
		rp.AW = t.PullWindowFor(rp.Src)
	}
	rp.startedAt = t.H.E.Now()
}

// Window returns the transfer's current window in blocks.
func (rp *RndvPull) Window() int {
	if rp.AW != nil {
		return rp.AW.Window()
	}
	return rp.window
}

// More reports whether blocks remain to be requested.
func (rp *RndvPull) More() bool { return rp.NextBlock*rp.blockFrags < rp.Frags }

// PullNext requests the next block in full.
func (t *Transport) PullNext(rp *RndvPull) {
	first := rp.NextBlock * rp.blockFrags
	blk := &PullBlock{
		Idx: rp.NextBlock, FirstFrag: first, pull: rp, sentAt: t.H.E.Now(),
		Asm: NewReassembly(min(rp.blockFrags, rp.Frags-first)),
	}
	rp.Blocks[blk.Idx] = blk
	rp.NextBlock++
	t.SendPull(rp, blk, blk.Asm.FullMask())
}

// SendPull transmits a pull for the masked fragments of blk on the
// block's stripe lane — the data answers on the lane the pull arrived
// on, so the block's whole round trip stays on one physical path —
// and (re)arms the block's timer.
func (t *Transport) SendPull(rp *RndvPull, blk *PullBlock, mask uint64) {
	// The header is filled in place in a frame of the transport's.
	r := t.newFrame()
	h := &r.pull
	h.Src, h.Dst = rp.Local, rp.Src
	h.SenderHandle, h.RecvHandle = rp.SenderHandle, rp.Handle
	h.Block, h.FirstFrag, h.FragCount = blk.Idx, blk.FirstFrag, blk.Asm.Frags
	h.NeedMask = mask
	r.Msg = h
	t.TransmitFrameOn(t.LaneOf(rp.Key.Seq, blk.Idx), rp.Src, &r.Frame)
	blk.timer.Stop()
	blk.timer = t.H.E.ScheduleArg(t.RtxTimeout(rp.Src, blk.attempts), expireBlock, blk)
}

// expireBlock is a block's retransmission timer. Consecutive expiries
// without a fresh fragment back off; the timeout marks the block
// retransmitted and is the AIMD loss signal (the controller halves
// once per loss epoch).
func expireBlock(arg any) {
	blk := arg.(*PullBlock)
	rp := blk.pull
	if rp.Done || blk.Asm.Done() {
		return
	}
	t := rp.t
	blk.attempts++
	blk.rtxed = true
	t.ctr.PullRetransmits++
	t.TraceRetransmit(rp.Key.Seq, blk.Idx, t.LaneOf(rp.Key.Seq, blk.Idx))
	if rp.AW != nil {
		rp.AW.OnLoss()
	}
	rp.retry(blk)
}

// AcceptFrag admits one pulled fragment and returns its block, or nil
// when the block already completed (a stale retransmission) or the
// fragment is a duplicate; both count as DupFrags. Fresh data resets
// the block's backoff: the sender is making progress.
func (t *Transport) AcceptFrag(rp *RndvPull, m *LargeFrag) *PullBlock {
	blk := rp.Blocks[m.Block]
	if blk == nil || !blk.Asm.Mark(m.FragID-blk.FirstFrag) {
		t.ctr.DupFrags++
		return nil
	}
	blk.attempts = 0
	return blk
}

// CompleteBlock retires a block whose every fragment arrived and
// closes its "pull" span. A never-retransmitted block's round trip is
// a clean sample for the peer's RTO estimator and the window
// controller (which may back off on round-trip inflation); it
// reports whether the sample was taken. Refilling the window is the
// stack's own policy.
func (t *Transport) CompleteBlock(rp *RndvPull, blk *PullBlock) bool {
	blk.timer.Stop()
	delete(rp.Blocks, blk.Idx)
	now := t.H.E.Now()
	if t.Trace != nil {
		t.Trace(TraceEvent{
			Kind: "pull", Frag: -1, Seq: rp.Key.Seq, Block: blk.Idx,
			Lane: t.LaneOf(rp.Key.Seq, blk.Idx), Window: rp.Window(),
			Start: blk.sentAt, End: now,
		})
	}
	if blk.rtxed {
		return false
	}
	rtt := now - blk.sentAt
	t.ObserveRTT(rp.Src, rtt)
	if rp.AW != nil {
		rp.AW.OnSample(rtt)
	}
	return true
}

// FinishPull completes a transfer once every fragment landed: the
// block timers stop, the rendezvous is marked done (a retransmitted
// request is re-acked from now on) and the "rndv" span closes. The
// stack then reports completion and calls AckRndv.
func (t *Transport) FinishPull(rp *RndvPull) {
	rp.Done = true
	for _, b := range rp.Blocks {
		b.timer.Stop()
	}
	t.RndvMarkDone(rp.Key)
	if t.Trace != nil {
		t.Trace(TraceEvent{
			Kind: "rndv", Frag: -1, Seq: rp.Key.Seq,
			Window: rp.Window(), Start: rp.startedAt, End: t.H.E.Now(),
		})
	}
}

// AckRndv tells the data sender the whole message arrived.
func (t *Transport) AckRndv(rp *RndvPull) {
	t.Transmit(rp.Src, &RndvAck{Src: rp.Local, Dst: rp.Src, SenderHandle: rp.SenderHandle}, nil)
}
