package proto

import (
	"testing"

	"omxsim/internal/host"
	"omxsim/platform"
	"omxsim/sim"
)

// newTestTransport builds the transport core of a stack on a fresh
// host with the given NIC count.
func newTestTransport(t *testing.T, lanes int, cfg TransportConfig) (*Transport, *Counters) {
	t.Helper()
	e := sim.New()
	t.Cleanup(e.Close)
	h := host.NewMulti(e, platform.Clovertown(), "h", lanes, nil)
	ctr := &Counters{}
	tr := NewTransport(h, ctr, cfg)
	return &tr, ctr
}

// TestTransportLaneOfStriping pins every stripe policy's lane choice
// at 1, 2 and 4 NICs. The hash lanes are the values the two stacks
// produced before they shared one implementation: changing them
// reshuffles every hash-striped golden figure.
func TestTransportLaneOfStriping(t *testing.T) {
	seqs := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 0xFFFFFFFF}
	cases := []struct {
		policy string
		lanes  int
		unit   int
		want   []int
	}{
		{StripeRoundRobin, 1, 0, []int{0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{StripeHash, 1, 0, []int{0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{StripeSingle, 1, 0, []int{0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"", 2, 0, []int{1, 0, 1, 0, 1, 0, 1, 0, 1}},
		{StripeRoundRobin, 2, 1, []int{0, 1, 0, 1, 0, 1, 0, 1, 0}},
		{StripeRoundRobin, 4, 0, []int{1, 2, 3, 0, 1, 2, 3, 0, 3}},
		{StripeRoundRobin, 4, 3, []int{0, 1, 2, 3, 0, 1, 2, 3, 2}},
		{StripeHash, 2, 0, []int{0, 1, 0, 0, 1, 0, 1, 1, 1}},
		{StripeHash, 2, 5, []int{0, 1, 0, 0, 1, 0, 1, 1, 1}},
		{StripeHash, 4, 0, []int{0, 1, 2, 2, 3, 0, 1, 1, 1}},
		{StripeHash, 4, 7, []int{0, 1, 2, 2, 3, 0, 1, 1, 1}},
		{StripeSingle, 2, 1, []int{0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{StripeSingle, 4, 3, []int{0, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	for _, c := range cases {
		tr, ctr := newTestTransport(t, c.lanes, TransportConfig{StripePolicy: c.policy})
		if len(ctr.NICTxFrames) != c.lanes {
			t.Errorf("%q/%d lanes: NICTxFrames has %d entries", c.policy, c.lanes, len(ctr.NICTxFrames))
		}
		for i, seq := range seqs {
			if got := tr.LaneOf(seq, c.unit); got != c.want[i] {
				t.Errorf("%q/%d lanes: LaneOf(%d, %d) = %d, want %d", c.policy, c.lanes, seq, c.unit, got, c.want[i])
			}
		}
	}
}

// TestTransportLossRecoveryTimeout checks the retransmission timeout:
// the static base and its backoff, a measured peer clamped to
// [MinRTO, base] when adaptive, and the cap on backed-off timeouts.
func TestTransportLossRecoveryTimeout(t *testing.T) {
	ms := sim.Millisecond
	peer, other := Addr{Host: "p", EP: 0}, Addr{Host: "q", EP: 0}
	cases := []struct {
		name     string
		cfg      TransportConfig
		samples  []sim.Duration // RTT samples observed from peer
		to       Addr
		attempts int
		want     sim.Duration
	}{
		{"default base", TransportConfig{}, nil, peer, 0, 50 * ms},
		{"default backoff", TransportConfig{}, nil, peer, 2, 200 * ms},
		{"default cap 16x", TransportConfig{}, nil, peer, 10, 800 * ms},
		{"custom base scales cap", TransportConfig{RetransmitTimeout: 2 * ms}, nil, peer, 10, 32 * ms},
		{"custom backoff and cap", TransportConfig{RetransmitTimeout: 2 * ms, RetransmitBackoff: 3, RetransmitMax: 10 * ms}, nil, peer, 1, 6 * ms},
		{"custom cap reached", TransportConfig{RetransmitTimeout: 2 * ms, RetransmitBackoff: 3, RetransmitMax: 10 * ms}, nil, peer, 2, 10 * ms},
		{"static ignores samples", TransportConfig{}, []sim.Duration{10 * sim.Microsecond}, peer, 0, 50 * ms},
		{"adaptive unmeasured peer", TransportConfig{Adaptive: true}, nil, peer, 0, 50 * ms},
		{"adaptive clamped to MinRTO", TransportConfig{Adaptive: true}, []sim.Duration{10 * sim.Microsecond}, peer, 0, MinRTO},
		{"adaptive measured in range", TransportConfig{Adaptive: true}, []sim.Duration{2 * ms}, peer, 0, 12 * ms},
		{"adaptive clamped to base", TransportConfig{Adaptive: true}, []sim.Duration{100 * ms}, peer, 0, 50 * ms},
		{"adaptive other peer unmeasured", TransportConfig{Adaptive: true}, []sim.Duration{2 * ms}, other, 0, 50 * ms},
		{"adaptive backoff from RTO", TransportConfig{Adaptive: true}, []sim.Duration{2 * ms}, peer, 2, 48 * ms},
		{"adaptive backoff capped", TransportConfig{Adaptive: true}, []sim.Duration{2 * ms}, peer, 20, 800 * ms},
		{"explicit timeout pins adaptive", TransportConfig{Adaptive: true, RetransmitTimeout: 20 * ms}, []sim.Duration{2 * ms}, peer, 0, 20 * ms},
	}
	for _, c := range cases {
		tr, _ := newTestTransport(t, 1, c.cfg)
		for _, rtt := range c.samples {
			tr.ObserveRTT(peer, rtt)
		}
		if got := tr.RtxTimeout(c.to, c.attempts); got != c.want {
			t.Errorf("%s: RtxTimeout(attempts=%d) = %v, want %v", c.name, c.attempts, got, c.want)
		}
	}
}

// TestTransportPullWindowPerPeer checks that adaptive pull windows are
// per peer, persist across lookups and scale their ceiling with lanes.
func TestTransportPullWindowPerPeer(t *testing.T) {
	tr, _ := newTestTransport(t, 2, TransportConfig{Adaptive: true})
	a, b := Addr{Host: "a"}, Addr{Host: "b"}
	aw := tr.PullWindowFor(a)
	if aw != tr.PullWindowFor(a) || aw == tr.PullWindowFor(b) {
		t.Fatal("pull windows must be created once per peer")
	}
	if aw.Min() != WinMin || aw.Max() != 2*WinPerLane {
		t.Errorf("window bounds [%d, %d], want [%d, %d]", aw.Min(), aw.Max(), WinMin, 2*WinPerLane)
	}
}

// TestTransportRndvDedupLossRecovery checks the rendezvous dedup
// table: no re-ack while a transfer is in progress, a re-ack with the
// sender handle once it is done, and at most RndvDedupWindow
// remembered completions.
func TestTransportRndvDedupLossRecovery(t *testing.T) {
	tr, _ := newTestTransport(t, 1, TransportConfig{})
	key := func(seq uint32) RndvKey { return RndvKey{Src: Addr{Host: "s", EP: 1}, Dst: 0, Seq: seq} }

	if _, _, ok := tr.rndvSeen(key(1)); ok {
		t.Fatal("fresh table reports a rendezvous as seen")
	}
	tr.rndvInsert(key(1), 7)
	if sender, done, ok := tr.rndvSeen(key(1)); !ok || done || sender != 7 {
		t.Fatalf("in progress: rndvSeen = (%d, %v, %v), want (7, false, true)", sender, done, ok)
	}
	tr.rndvInsert(key(1), 99) // a retransmitted request keeps the original state
	tr.RndvMarkDone(key(1))
	if sender, done, ok := tr.rndvSeen(key(1)); !ok || !done || sender != 7 {
		t.Fatalf("done: rndvSeen = (%d, %v, %v), want (7, true, true)", sender, done, ok)
	}
	tr.RndvMarkDone(key(1000)) // unknown key: no entry appears
	if _, _, ok := tr.rndvSeen(key(1000)); ok {
		t.Fatal("marking an unknown rendezvous done created it")
	}

	// An in-progress transfer is never evicted; completed ones are,
	// oldest first, past the window.
	inflight := RndvKey{Src: Addr{Host: "other"}, Seq: 1}
	tr.rndvInsert(inflight, 3)
	const extra = 10
	for seq := uint32(2); seq < 2+RndvDedupWindow+extra; seq++ {
		tr.rndvInsert(key(seq), int(seq))
		tr.RndvMarkDone(key(seq))
	}
	if got := tr.done.Len(); got != RndvDedupWindow {
		t.Errorf("done FIFO holds %d keys, want %d", got, RndvDedupWindow)
	}
	if got := len(tr.seen); got != RndvDedupWindow+1 {
		t.Errorf("table holds %d entries, want %d (window + the in-progress one)", got, RndvDedupWindow+1)
	}
	// seq 1 completed first, so seqs 1..extra+1 fell out of the window.
	for _, seq := range []uint32{1, 2, extra + 1} {
		if _, _, ok := tr.rndvSeen(key(seq)); ok {
			t.Errorf("seq %d should have been evicted", seq)
		}
	}
	if _, _, ok := tr.rndvSeen(key(extra + 2)); !ok {
		t.Errorf("seq %d evicted early", extra+2)
	}
	last := uint32(1 + RndvDedupWindow + extra)
	if sender, done, ok := tr.rndvSeen(key(last)); !ok || !done || sender != int(last) {
		t.Errorf("newest completion lost: rndvSeen = (%d, %v, %v)", sender, done, ok)
	}
	if _, done, ok := tr.rndvSeen(inflight); !ok || done {
		t.Error("in-progress rendezvous evicted by completions")
	}
}
