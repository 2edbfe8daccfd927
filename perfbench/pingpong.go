package main

import (
	"bytes"
	"errors"
	"fmt"

	"omxsim/cluster"
	"omxsim/openmx"
	"omxsim/sim"
)

// pingPongSpec shapes a ping-pong workload: two Open-MX hosts back to
// back, one rank each, one round trip of size bytes per op.
type pingPongSpec struct {
	size   int
	cfg    openmx.Config
	warmup int // checked round trips per set-up round
}

// eagerSpec is pingpong-eager: 64 B round trips on the memcpy stack,
// the per-message fixed cost of the eager path.
var eagerSpec = pingPongSpec{size: 64, cfg: openmx.Config{RegCache: true}, warmup: 1000}

// rndvSpec is pingpong-rndv: 1 MiB round trips with I/OAT, the
// rendezvous, pull and bottom-half copy-offload path.
var rndvSpec = pingPongSpec{size: 1 << 20, cfg: openmx.Config{IOAT: true, RegCache: true}, warmup: 10}

// rankCore is the core both ranks run on: the figures' first rank core.
const rankCore = 2

// Match values of the two legs; the mask matches them exactly.
const (
	matchPing = 1
	matchPong = 2
	matchAll  = ^uint64(0)
)

type pingPong struct {
	spec pingPongSpec
	seed byte

	c      *cluster.Cluster
	sa, sb *openmx.Stack
	ea, eb openmx.Endpoint
	// src holds two seeded payloads on host A; op n sends src[n%2], so
	// a round trip that delivers nothing leaves the previous op's
	// bytes behind and fails the check.
	src        [2]*cluster.Buffer
	dstB, dstA *cluster.Buffer
	n          int
	blocked    int // processes the last op's Run left blocked
	last       counts
	// net is the NetStats reading at the end of set-up. NetStats
	// allocates, so it is read once per phase rather than per op.
	net counts
}

func newPingPong(spec pingPongSpec, seed int64) *pingPong {
	return &pingPong{spec: spec, seed: byte(seed)}
}

// setup builds the two-host world, attaches the stacks, opens the
// endpoints, allocates and fills the payloads and runs the warm-up
// round trips.
func (pp *pingPong) setup(b *bench) error {
	t := b.clock()
	c, err := cluster.BuildE(cluster.Topology{
		Hosts:  []cluster.HostSet{{Name: "node", N: 2, Indexed: true}},
		Wiring: cluster.BackToBack{},
	})
	b.since("cluster.build_ms", t)
	if err != nil {
		return err
	}
	a, bh := c.Hosts()[0], c.Hosts()[1]
	pp.c = c
	pp.sa, pp.sb = openmx.Attach(a, pp.spec.cfg), openmx.Attach(bh, pp.spec.cfg)
	pp.ea, pp.eb = pp.sa.Open(0, rankCore), pp.sb.Open(0, rankCore)

	n := pp.spec.size
	t = b.clock()
	pp.src = [2]*cluster.Buffer{a.Alloc(n), a.Alloc(n)}
	pp.dstA, pp.dstB = a.Alloc(n), bh.Alloc(n)
	b.since("cluster.alloc_ms", t)
	t = b.clock()
	pp.src[0].Fill(pp.seed)
	pp.src[1].Fill(pp.seed + 1)
	b.since("cluster.fill_ms", t)

	pp.last = pp.snapshot()
	pp.net = pp.netCounts()
	var warm counts
	for i := 0; i < pp.spec.warmup; i++ {
		pp.op(b)
		k, err := pp.check(b)
		b.tally(err)
		warm.add(k)
	}
	start := pp.net
	pp.net = pp.netCounts()
	return netCheck(pp.net.sub(start), warm)
}

// phaseEnd reads the timed phase's wire-level counts — the bytes the
// hosts put on the wire — and fails the phase on any loss.
func (pp *pingPong) phaseEnd(_ *bench, phase counts) (counts, error) {
	k := pp.netCounts().sub(pp.net)
	return counts{WireBytes: k.WireBytes}, netCheck(k, phase)
}

// netCheck compares a NetStats delta with the per-op counts of the
// same ops: nothing lost on the wire or in a receive ring, and every
// frame the stacks sent seen by the NICs.
func netCheck(net, ops counts) error {
	if net.WireDrops != 0 || net.RingDrops != 0 {
		return fmt.Errorf("losses on perfect links: %d wire drops, %d NIC ring drops", net.WireDrops, net.RingDrops)
	}
	if net.Frames != ops.Frames {
		return fmt.Errorf("NetStats counts %d frames sent, the stacks %d", net.Frames, ops.Frames)
	}
	return nil
}

func (pp *pingPong) teardown(b *bench) {
	if pp.c == nil {
		return
	}
	t := b.clock()
	pp.c.Close()
	b.since("cluster.close_ms", t)
	*pp = pingPong{spec: pp.spec, seed: pp.seed}
}

// op runs one round trip: A sends src to B, B echoes what it received.
// Each sender first produces its payload, as IMB's PingPong does.
func (pp *pingPong) op(b *bench) {
	n := pp.spec.size
	src := pp.src[pp.n%2]
	pp.n++
	ea, eb := pp.ea, pp.eb
	pp.c.Go("ping", func(p *sim.Proc) {
		t := b.clock()
		rr := ea.IRecv(p, matchPong, matchAll, pp.dstA, 0, n)
		b.since("openmx.irecv_us", t)
		src.Produce(rankCore)
		t = b.clock()
		sr := ea.ISend(p, eb.Addr(), matchPing, src, 0, n)
		b.since("openmx.isend_us", t)
		t = b.clock()
		ea.Wait(p, sr)
		b.since("openmx.wait_us", t)
		t = b.clock()
		ea.Wait(p, rr)
		b.since("openmx.wait_us", t)
	})
	pp.c.Go("pong", func(p *sim.Proc) {
		t := b.clock()
		rr := eb.IRecv(p, matchPing, matchAll, pp.dstB, 0, n)
		b.since("openmx.irecv_us", t)
		t = b.clock()
		eb.Wait(p, rr)
		b.since("openmx.wait_us", t)
		pp.dstB.Produce(rankCore)
		t = b.clock()
		sr := eb.ISend(p, ea.Addr(), matchPong, pp.dstB, 0, n)
		b.since("openmx.isend_us", t)
		t = b.clock()
		eb.Wait(p, sr)
		b.since("openmx.wait_us", t)
	})
	pp.blocked = pp.c.Run()
}

// netCounts reads the world's cumulative NetStats counters.
func (pp *pingPong) netCounts() counts {
	var k counts
	ns := pp.c.NetStats()
	for _, h := range ns.Hosts {
		k.Frames += h.TxFrames
		k.RingDrops += h.RxDrops
	}
	for _, l := range ns.Links {
		k.WireBytes += l.AB.BytesSent + l.BA.BytesSent
	}
	k.WireDrops = ns.TotalWireLoss()
	return k
}

// snapshot reads the world's cumulative per-op counters; unlike
// NetStats, reading them allocates nothing.
func (pp *pingPong) snapshot() counts {
	k := counts{VirtualNs: int64(pp.c.Now())}
	for _, s := range []*openmx.Stack{pp.sa, pp.sb} {
		st := s.Stats()
		for _, f := range st.NICTxFrames {
			k.Frames += f
		}
		k.EagerSent += st.EagerSent
		k.Pulls += st.PullsSent
		k.IOATSubmits += st.IOATSubmits
		k.Retransmits += st.EagerRetransmits + st.PullRetransmits + st.RndvRetransmits
		k.DupFrags += st.DupFrags
		k.RingDrops += st.RingDrops
		rs := s.RegStats()
		k.RegHits += rs.Hits
		k.RegMisses += rs.Misses
	}
	return k
}

// check verifies the round trip just run: the simulation drained with
// no blocked process, both receive buffers hold the sent payload, and
// nothing was lost or retransmitted.
func (pp *pingPong) check(b *bench) (counts, error) {
	now := pp.snapshot()
	k := now.sub(pp.last)
	pp.last = now
	var err error
	if pp.blocked != 0 {
		err = fmt.Errorf("round trip %d left %d processes blocked", pp.n, pp.blocked)
	}
	// bytes.Equal means what cluster.Equal means, length and contents,
	// at memcmp speed: the check of a 1 MiB round trip stays small next
	// to the op.
	src := pp.src[(pp.n-1)%2].Bytes()
	if !bytes.Equal(pp.dstB.Bytes(), src) {
		err = errors.Join(err, fmt.Errorf("round trip %d: B received bytes that differ from A's payload", pp.n))
	}
	if !bytes.Equal(pp.dstA.Bytes(), src) {
		err = errors.Join(err, fmt.Errorf("round trip %d: A's echo differs from its payload", pp.n))
	}
	return k, errors.Join(err, k.faults())
}
