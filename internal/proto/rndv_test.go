package proto

import (
	"testing"

	"omxsim/internal/host"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// The rendezvous state machines on a bare engine: one host whose link
// drops every frame, timers driven by RunUntil.

const testRtx = sim.Millisecond

// newRndvSend starts a rendezvous to peer and records the simulated
// time of every request the watchdog sends, the first one included.
func newRndvSend(t *testing.T, cfg TransportConfig) (*Transport, *Counters, *RndvSend, *[]sim.Time) {
	t.Helper()
	tr, ctr := newTestTransport(t, 1, cfg)
	buf := tr.H.Alloc(LargeFragSize)
	buf.Lend()
	rs := &RndvSend{Handle: 1, Dst: Addr{Host: "peer"}, Seq: 1, Buf: buf, N: LargeFragSize}
	var sent []sim.Time
	tr.StartRndv(rs, func() { sent = append(sent, tr.H.E.Now()) })
	return tr, ctr, rs, &sent
}

// at runs fn at absolute time when.
func at(tr *Transport, when sim.Time, fn func()) { tr.H.E.At(when, fn) }

func equalTimes(a, b []sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRndvWatchdogResendsOnlyWithoutPull: an expiry re-sends the
// request only when no pull arrived since the previous expiry.
func TestRndvWatchdogResendsOnlyWithoutPull(t *testing.T) {
	tr, ctr, rs, sent := newRndvSend(t, TransportConfig{RetransmitTimeout: testRtx, RetransmitBackoff: 1})
	peer := rs.Dst
	// Expiries every 1 ms. A pull lands in (1, 2) ms and another in
	// (3, 4) ms; the expiries at 2 and 4 ms see progress, those at 1,
	// 3 and 5 ms do not.
	at(tr, 1500*sim.Microsecond, func() { tr.PullArrived(rs, peer) })
	at(tr, 3500*sim.Microsecond, func() { tr.PullArrived(rs, peer) })
	tr.H.E.RunUntil(5*testRtx + 1)
	want := []sim.Time{0, 1 * testRtx, 3 * testRtx, 5 * testRtx}
	if !equalTimes(*sent, want) {
		t.Fatalf("requests at %v, want %v", *sent, want)
	}
	if ctr.RndvSent != 1 || ctr.RndvRetransmits != 3 {
		t.Errorf("RndvSent=%d RndvRetransmits=%d, want 1 and 3", ctr.RndvSent, ctr.RndvRetransmits)
	}
}

// TestRndvWatchdogBackoffResetAndStop: unanswered expiries double the
// timeout, an expiry that sees progress resets it to the base, and
// finishing the send stops the watchdog for good.
func TestRndvWatchdogBackoffResetAndStop(t *testing.T) {
	tr, _, rs, sent := newRndvSend(t, TransportConfig{RetransmitTimeout: testRtx, RetransmitBackoff: 2})
	// Unanswered: expiries at 1, 3 and 7 ms (timeouts 1, 2, 4 ms). A
	// pull at 8 ms makes the 15 ms expiry a progress one: the backoff
	// resets and the next expiry, at 16 ms, re-sends after the base
	// timeout. The send then finishes.
	at(tr, 8*testRtx, func() { tr.PullArrived(rs, rs.Dst) })
	tr.H.E.RunUntil(16*testRtx + testRtx/2)
	want := []sim.Time{0, 1 * testRtx, 3 * testRtx, 7 * testRtx, 16 * testRtx}
	if !equalTimes(*sent, want) {
		t.Fatalf("requests at %v, want %v", *sent, want)
	}
	tr.FinishRndv(rs)
	if n := tr.H.E.Pending(); n != 0 {
		t.Errorf("%d events still scheduled after the send finished", n)
	}
	tr.H.E.RunUntil(100 * testRtx)
	if len(*sent) != len(want) {
		t.Errorf("requests after the send finished: %v", (*sent)[len(want):])
	}
}

// srttSamples counts the RTT samples the transport took from peer.
func srttSamples(tr *Transport, peer Addr) int64 {
	if e := tr.rtt[peer]; e != nil {
		return e.Samples()
	}
	return 0
}

// TestRndvFirstPullSamplesOnce: the first pull is an RTT sample only
// when the request was never retransmitted, and later pulls are never
// sampled.
func TestRndvFirstPullSamplesOnce(t *testing.T) {
	cfg := TransportConfig{Adaptive: true, RetransmitTimeout: testRtx, RetransmitBackoff: 1}

	tr, _, rs, _ := newRndvSend(t, cfg)
	at(tr, testRtx/2, func() { tr.PullArrived(rs, rs.Dst) })
	at(tr, 3*testRtx/2, func() { tr.PullArrived(rs, rs.Dst) })
	tr.H.E.RunUntil(2 * testRtx)
	if n := srttSamples(tr, rs.Dst); n != 1 {
		t.Fatalf("clean request: %d samples, want 1", n)
	}
	if got := tr.rtt[rs.Dst].SRTT(); got != testRtx/2 {
		t.Errorf("clean request: SRTT %v, want %v", got, testRtx/2)
	}

	// The request is re-sent at 1 ms, so the pull at 1.5 ms may answer
	// either copy: Karn's rule takes no sample.
	tr, _, rs, _ = newRndvSend(t, cfg)
	at(tr, 3*testRtx/2, func() { tr.PullArrived(rs, rs.Dst) })
	tr.H.E.RunUntil(2 * testRtx)
	if n := srttSamples(tr, rs.Dst); n != 0 {
		t.Errorf("retransmitted request: %d samples, want 0", n)
	}
}

// newPull starts a two-block pull of 4 fragments per block from peer
// and records the blocks its retry action is asked to re-request.
func newPull(t *testing.T, cfg TransportConfig) (*Transport, *Counters, *RndvPull, *[]int) {
	t.Helper()
	tr, ctr := newTestTransport(t, 1, cfg)
	sink := host.New(tr.H.E, tr.H.P, "peer")
	out, _ := wire.Connect(tr.H.E, tr.H.P, tr.H.NIC, sink.NIC)
	out.Drop = func(*wire.Frame) bool { return true }
	tr.H.NIC.SetHose(out)
	peer := Addr{Host: "peer"}
	rp := &RndvPull{
		Handle: 1, Local: Addr{Host: "h"}, Src: peer, SenderHandle: 7,
		Key: RndvKey{Src: peer, Seq: 3}, N: 8 * LargeFragSize,
	}
	var retried []int
	tr.StartPull(rp, 4, 2, cfg.Adaptive, func(blk *PullBlock) {
		retried = append(retried, blk.Idx)
		tr.SendPull(rp, blk, blk.Asm.Missing())
	})
	for i := 0; i < rp.Window() && rp.More(); i++ {
		tr.PullNext(rp)
	}
	return tr, ctr, rp, &retried
}

func frag(block, id int) *LargeFrag { return &LargeFrag{Block: block, FragID: id} }

// TestPullAcceptFragRejectsStaleAndDup: a duplicate fragment and one
// for a block no longer outstanding are both rejected and counted;
// fresh data resets the block's backoff.
func TestPullAcceptFragRejectsStaleAndDup(t *testing.T) {
	tr, ctr, rp, retried := newPull(t, TransportConfig{RetransmitTimeout: testRtx})
	if len(rp.Blocks) != 2 || rp.More() {
		t.Fatalf("pull of 8 fragments in blocks of 4 has %d blocks out, more=%v", len(rp.Blocks), rp.More())
	}
	tr.H.E.RunUntil(testRtx) // both blocks time out once
	if len(*retried) != 2 || rp.Blocks[0].attempts != 1 {
		t.Fatalf("after one timeout: retried %v, attempts %d", *retried, rp.Blocks[0].attempts)
	}
	blk := tr.AcceptFrag(rp, frag(0, 0))
	if blk != rp.Blocks[0] || blk.attempts != 0 {
		t.Fatalf("fresh fragment: block %v, attempts %d; want block 0 with its backoff reset", blk, blk.attempts)
	}
	if tr.AcceptFrag(rp, frag(0, 0)) != nil {
		t.Error("duplicate fragment accepted")
	}
	if tr.AcceptFrag(rp, frag(5, 20)) != nil {
		t.Error("fragment of a block not outstanding accepted")
	}
	if ctr.DupFrags != 2 {
		t.Errorf("DupFrags = %d, want 2", ctr.DupFrags)
	}
	if blk.Asm.Arrived != 1 {
		t.Errorf("block 0 holds %d fragments, want 1", blk.Asm.Arrived)
	}
}

// TestPullCompleteBlockSamplesOnlyClean: a block that completes
// without a retransmission feeds the RTT estimator and the window
// controller; one whose timer fired does not.
func TestPullCompleteBlockSamplesOnlyClean(t *testing.T) {
	tr, ctr, rp, retried := newPull(t, TransportConfig{Adaptive: true, RetransmitTimeout: 4 * testRtx})
	// Block 0 completes cleanly at 1 ms.
	tr.H.E.RunUntil(testRtx)
	b0 := rp.Blocks[0]
	for i := 0; i < 4; i++ {
		tr.AcceptFrag(rp, frag(0, i))
	}
	if !b0.Asm.Done() || !tr.CompleteBlock(rp, b0) {
		t.Fatal("clean block was not sampled")
	}
	if _, ok := rp.Blocks[0]; ok {
		t.Error("completed block still outstanding")
	}
	if n := srttSamples(tr, rp.Src); n != 1 || tr.rtt[rp.Src].SRTT() != testRtx {
		t.Fatalf("after the clean block: %d samples, want one of %v", n, testRtx)
	}
	if got := rp.AW.Baseline(); got != testRtx {
		t.Errorf("window baseline %v, want %v", got, testRtx)
	}

	// Block 1 times out at 4 ms, is re-requested, then completes.
	tr.H.E.RunUntil(4 * testRtx)
	if len(*retried) != 1 || (*retried)[0] != 1 || ctr.PullRetransmits != 1 {
		t.Fatalf("retried %v with %d PullRetransmits, want block 1 once", *retried, ctr.PullRetransmits)
	}
	b1 := rp.Blocks[1]
	for i := 4; i < 8; i++ {
		tr.AcceptFrag(rp, frag(1, i))
	}
	if tr.CompleteBlock(rp, b1) {
		t.Error("retransmitted block was sampled")
	}
	if n := srttSamples(tr, rp.Src); n != 1 {
		t.Errorf("retransmitted block fed the estimator: %d samples", n)
	}
	if len(rp.Blocks) != 0 {
		t.Errorf("%d blocks outstanding after both completed", len(rp.Blocks))
	}
}
