package mxoe

import (
	"fmt"
	"testing"

	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// rtxCfg is a loss-test config with a short timeout so recovery fits
// in simulated milliseconds.
func rtxCfg() Config {
	return Config{RetransmitTimeout: 2 * sim.Millisecond}
}

// impairPair installs the given impairment on both directions of a
// fresh pair.
func impairPair(t *testing.T, cfg Config, im wire.Impairment) *pair {
	pr := newPair(t, cfg)
	pr.sa.H.NIC.Hose().SetImpairment(im)
	rev := im
	rev.Seed ^= 0x5A5A
	pr.sb.H.NIC.Hose().SetImpairment(rev)
	return pr
}

// exchange moves count messages of n bytes A→B and verifies every
// payload.
func exchange(t *testing.T, pr *pair, count, n int) {
	t.Helper()
	srcs := make([]*hostmem.Buffer, count)
	dsts := make([]*hostmem.Buffer, count)
	for i := range srcs {
		srcs[i] = pr.sa.H.Alloc(n)
		dsts[i] = pr.sb.H.Alloc(n)
		srcs[i].Fill(byte(i + 1))
	}
	done := 0
	pr.e.Go("recv", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r := pr.epB.IRecv(p, uint64(i), ^uint64(0), dsts[i], 0, n)
			pr.epB.Wait(p, r)
			done++
		}
	})
	pr.e.Go("send", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < count; i++ {
			reqs = append(reqs, pr.epA.ISend(p, pr.epB.Addr(), uint64(i), srcs[i], 0, n))
		}
		for _, r := range reqs {
			pr.epA.Wait(p, r)
		}
	})
	pr.e.RunUntil(pr.e.Now() + 30*sim.Second)
	if done != count {
		t.Fatalf("completed %d/%d messages; blocked: %v; stats A=%+v B=%+v",
			done, count, pr.e.BlockedProcs(), pr.sa.Stats, pr.sb.Stats)
	}
	for i := range srcs {
		if !hostmem.Equal(srcs[i], dsts[i]) {
			t.Fatalf("message %d corrupted (n=%d)", i, n)
		}
	}
}

func TestEagerRecoversFromLoss(t *testing.T) {
	pr := impairPair(t, rtxCfg(), wire.Impairment{Seed: 11, LossRate: 0.1})
	exchange(t, pr, 20, 2048)
	if pr.sa.Stats.EagerRetransmits == 0 {
		t.Fatalf("no eager retransmits at 10%% loss: %+v", pr.sa.Stats)
	}
}

func TestRndvRecoversFromLoss(t *testing.T) {
	pr := impairPair(t, rtxCfg(), wire.Impairment{Seed: 13, LossRate: 0.05})
	exchange(t, pr, 4, 600*1024)
	total := pr.sa.Stats.Retransmits() + pr.sb.Stats.Retransmits()
	if total == 0 {
		t.Fatalf("large transfers at 5%% loss needed no retransmits: A=%+v B=%+v",
			pr.sa.Stats, pr.sb.Stats)
	}
}

func TestDuplicationSuppressed(t *testing.T) {
	pr := impairPair(t, rtxCfg(), wire.Impairment{Seed: 17, DupRate: 0.3})
	exchange(t, pr, 10, 4096)
	if pr.sb.Stats.DupFrags == 0 {
		t.Fatalf("30%% duplication produced no suppressed frags: %+v", pr.sb.Stats)
	}
}

func TestReorderAndJitterTolerated(t *testing.T) {
	pr := impairPair(t, rtxCfg(), wire.Impairment{
		Seed: 19, ReorderRate: 0.2, ReorderDelay: 30 * sim.Microsecond,
		JitterMax: 5 * sim.Microsecond,
	})
	exchange(t, pr, 12, 64*1024)
}

func TestLossReorderDupCombined(t *testing.T) {
	pr := impairPair(t, rtxCfg(), wire.Impairment{
		Seed: 23, LossRate: 0.03, DupRate: 0.03, ReorderRate: 0.1,
		JitterMax: 3 * sim.Microsecond,
	})
	exchange(t, pr, 8, 200*1024)
}

// TestCleanPathSendsNoExtraFrames: with no impairment the hardened
// firmware must emit exactly the frames the unhardened stack did —
// no retransmissions, no duplicate suppression, no stray acks.
func TestCleanPathSendsNoExtraFrames(t *testing.T) {
	pr := newPair(t, Config{})
	exchange(t, pr, 6, 128*1024)
	for name, st := range map[string]Stats{"A": pr.sa.Stats, "B": pr.sb.Stats} {
		if st.Retransmits() != 0 || st.DupFrags != 0 || st.QueueDrops != 0 {
			t.Fatalf("clean run has recovery activity on %s: %+v", name, st)
		}
	}
}

// TestQueueOverrunRecovers: a receive queue of very few slots forces
// firmware drops; sender retransmission must still deliver everything.
func TestQueueOverrunRecovers(t *testing.T) {
	cfg := rtxCfg()
	cfg.RingSlots = 4
	pr := newPair(t, cfg)
	exchange(t, pr, 10, 16*1024)
	if pr.sb.Stats.QueueDrops == 0 {
		t.Skipf("queue never overran (slots drained fast); stats: %+v", pr.sb.Stats)
	}
}

func TestMxTxChanCumulativeAckWraparound(t *testing.T) {
	tc := &mxTxChan{nextSeq: ^uint32(0) - 1} // two before wrap
	var seqs []uint32
	for i := 0; i < 4; i++ {
		seq := tc.next()
		if seq == 0 {
			t.Fatal("sequence 0 issued (reserved for 'no ack')")
		}
		seqs = append(seqs, seq)
		tc.unacked = append(tc.unacked, &mxUnacked{seq: seq})
	}
	// seqs = fffffffe, ffffffff, 1, 2. Ack the third: serial order
	// must treat the pre-wrap seqs as covered too.
	if acked := tc.applyCumulative(seqs[2]); len(acked) != 3 {
		t.Fatalf("cumulative ack across wraparound released %d sends, want 3", len(acked))
	}
	if len(tc.unacked) != 1 || tc.unacked[0].seq != seqs[3] {
		t.Fatalf("unacked after wrap ack: %+v", tc.unacked)
	}
	// Stale ack from before the wrap must be ignored.
	if tc.applyCumulative(seqs[0]) != nil {
		t.Fatal("stale pre-wrap ack advanced the channel")
	}
}

func TestMxRxChanWindowWraparound(t *testing.T) {
	c := &mxRxChan{win: proto.NewWindowAt(^uint32(0) - 1), asm: make(map[uint32]*fwAsm)}
	c.markComplete(^uint32(0)) // wraps past 0 → edge must land on last pre-wrap seq
	if c.win.Edge() != ^uint32(0) {
		t.Fatalf("edge %d, want %d", c.win.Edge(), ^uint32(0))
	}
	if c.isDup(1) {
		t.Fatal("first post-wrap seq wrongly flagged dup")
	}
	c.markComplete(1)
	if c.win.Edge() != 1 {
		t.Fatalf("edge %d after wrap, want 1 (skipping sentinel 0)", c.win.Edge())
	}
	if !c.isDup(^uint32(0)) || !c.isDup(1) {
		t.Fatal("completed seqs not flagged dup after wrap")
	}
}

// TestManyPeersIndependentWindows: channels are per (endpoint, peer);
// a storm from several peers must not cross-contaminate windows.
func TestManyPeersIndependentWindows(t *testing.T) {
	e := sim.New()
	defer e.Close()
	p := pr3(t, e)
	const count = 5
	n := 8 * 1024
	type flow struct{ src, dst *hostmem.Buffer }
	flows := make(map[string][]flow)
	for i, s := range p.senders {
		for k := 0; k < count; k++ {
			f := flow{src: s.H.Alloc(n), dst: p.recvStack.H.Alloc(n)}
			f.src.Fill(byte(16*i + k + 1))
			flows[s.H.Name] = append(flows[s.H.Name], f)
		}
	}
	got := 0
	e.Go("recv", func(pc *sim.Proc) {
		for i := range p.senders {
			for k := 0; k < count; k++ {
				fl := flows[p.senders[i].H.Name][k]
				r := p.recvEP.IRecv(pc, uint64(1000*i+k), ^uint64(0), fl.dst, 0, n)
				p.recvEP.Wait(pc, r)
				got++
			}
		}
	})
	for i, s := range p.senders {
		ep := p.sendEPs[i]
		e.Go(fmt.Sprintf("send%d", i), func(pc *sim.Proc) {
			for k := 0; k < count; k++ {
				fl := flows[s.H.Name][k]
				ep.Wait(pc, ep.ISend(pc, p.recvEP.Addr(), uint64(1000*i+k), fl.src, 0, n))
			}
		})
	}
	e.RunUntil(30 * sim.Second)
	if got != count*len(p.senders) {
		t.Fatalf("received %d/%d", got, count*len(p.senders))
	}
	for _, s := range p.senders {
		for k, fl := range flows[s.H.Name] {
			if !hostmem.Equal(fl.src, fl.dst) {
				t.Fatalf("flow %s/%d corrupted", s.H.Name, k)
			}
		}
	}
}

// pr3 builds three senders and one receiver on a lossy switch.
type threeToOne struct {
	senders   []*Stack
	sendEPs   []*Endpoint
	recvStack *Stack
	recvEP    *Endpoint
}

func pr3(t *testing.T, e *sim.Engine) *threeToOne {
	t.Helper()
	p := platform.Clovertown()
	sw := wire.NewSwitch(e, p)
	sw.PortImpair = wire.Impairment{Seed: 31, LossRate: 0.05}
	out := &threeToOne{}
	mk := func(name string) *Stack {
		h := host.New(e, p, name)
		h.NIC.SetHose(sw.Attach(h.NIC))
		return Attach(h, rtxCfg())
	}
	for i := 0; i < 3; i++ {
		s := mk(fmt.Sprintf("snd%d", i))
		out.senders = append(out.senders, s)
		out.sendEPs = append(out.sendEPs, s.OpenEndpoint(0, 2))
	}
	out.recvStack = mk("rcv")
	out.recvEP = out.recvStack.OpenEndpoint(0, 2)
	return out
}
