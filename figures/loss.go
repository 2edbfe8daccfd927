package figures

import (
	"fmt"
	"sort"
	"strings"

	"omxsim/cluster"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
	"omxsim/sim"
)

// The loss figure (beyond the paper): the paper measured a clean
// dedicated 10 GbE link, but Open-MX's reliability window, acks and
// retransmission — and the firmware reliability of native MX — only
// earn their keep when the network misbehaves. This sweep runs an
// IMB-style ping-pong across frame-loss rate × message size on both
// stacks (Open-MX with I/OAT offload on and off, plus native MXoE)
// and reports goodput, median and p99 latency, retransmission counts
// and wire-level loss. Every point uses a seeded deterministic
// impairment, so the figure is as reproducible as the clean ones.

// lossRtx is the sweep's retransmission timeout: production-style
// tuning (the paper's 50 ms default would dominate every percentile).
const lossRtx = 2 * sim.Millisecond

// LossRates returns the swept frame-loss probabilities.
func LossRates() []float64 { return []float64{0, 0.01, 0.05} }

// LossSizes returns the swept message sizes: an eager size, a
// rendezvous size and a large pull.
func LossSizes() []int { return []int{4 << 10, 256 << 10, 1 << 20} }

// LossIters is the ping-pong iteration count per point.
const LossIters = 40

// LossPoint is one measured (stack, loss rate, size) combination.
type LossPoint struct {
	Stack     string
	LossRate  float64
	Bytes     int
	Iters     int
	Delivered int // round trips with verified payloads in both directions

	GoodputMiBps float64 // one-way payload goodput over the whole run
	P50Usec      float64 // median half-round-trip latency
	P99Usec      float64 // tail half-round-trip latency

	Retransmits int64 // both stacks' eager+rndv+pull retransmissions
	WireLost    int64 // frames eaten by the impaired link (both dirs)
}

// lossStacks are the compared stacks, every one tuned to the sweep's
// retransmission timeout.
func lossStacks() []struct {
	name string
	s    Stack
} {
	omx := func(ioat bool) openmx.Config {
		return openmx.Config{IOAT: ioat, RegCache: true, RetransmitTimeout: lossRtx}
	}
	return []struct {
		name string
		s    Stack
	}{
		{"MX", Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true, RetransmitTimeout: lossRtx}}},
		{"Open-MX", Stack{Kind: "openmx", OMX: omx(false)}},
		{"Open-MX I/OAT", Stack{Kind: "openmx", OMX: omx(true)}},
	}
}

// lossSeed derives a point's impairment seed: fixed per (loss, size)
// so every stack faces the same adversary, stable across runs.
func lossSeed(loss float64, size int) int64 {
	return 7301 + int64(loss*10000)*131 + int64(size)
}

// lossPoint runs one point on a fresh two-host impaired testbed.
func lossPoint(name string, s Stack, loss float64, size, iters int) LossPoint {
	c := cluster.New(nil)
	a, b := c.NewHost("node0"), c.NewHost("node1")
	cluster.Link(a, b, cluster.Impair(cluster.Impairment{
		Seed: lossSeed(loss, size), LossRate: loss,
	}))
	open := func(h *cluster.Host) (openmx.Transport, func() int64) {
		switch s.Kind {
		case "mxoe":
			st := mxoe.Attach(h, s.MX)
			return st, func() int64 { return st.Stats().Retransmits() }
		default:
			st := openmx.Attach(h, s.OMX)
			return st, func() int64 { return st.Stats().Retransmits() }
		}
	}
	ta, rtxA := open(a)
	tb, rtxB := open(b)
	ea, eb := ta.Open(0, 2), tb.Open(0, 2)

	sendA, recvA := a.Alloc(size), a.Alloc(size)
	sendB, recvB := b.Alloc(size), b.Alloc(size)

	lat := make([]sim.Duration, 0, iters)
	delivered := 0
	var elapsed sim.Time
	c.Go("rankB", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			r := eb.IRecv(p, uint64(i), ^uint64(0), recvB, 0, size)
			eb.Wait(p, r)
			sendB.Fill(byte(2*i + 2))
			sendB.Produce(2)
			rs := eb.ISend(p, ea.Addr(), uint64(1000+i), sendB, 0, size)
			eb.Wait(p, rs)
		}
	})
	c.Go("rankA", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			t0 := p.Now()
			sendA.Fill(byte(2*i + 1))
			sendA.Produce(2)
			rs := ea.ISend(p, eb.Addr(), uint64(i), sendA, 0, size)
			rr := ea.IRecv(p, uint64(1000+i), ^uint64(0), recvA, 0, size)
			ea.Wait(p, rs)
			ea.Wait(p, rr)
			lat = append(lat, (p.Now()-t0)/2)
			// Verify both directions' payloads end to end (the fill
			// pattern differs per iteration, so a stale echo fails).
			if cluster.Equal(sendB, recvA) && cluster.Equal(sendA, recvB) {
				delivered++
			}
			elapsed = p.Now()
		}
	})
	c.RunFor(120 * sim.Second)
	defer c.Close()

	pt := LossPoint{
		Stack: name, LossRate: loss, Bytes: size, Iters: iters,
		Delivered:   delivered,
		Retransmits: rtxA() + rtxB(),
	}
	ns := c.NetStats()
	for _, l := range ns.Links {
		pt.WireLost += l.AB.FramesLost + l.BA.FramesLost
	}
	if len(lat) > 0 {
		sorted := append([]sim.Duration(nil), lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pt.P50Usec = sim.Time(sorted[(len(sorted)-1)/2]).Micros()
		pt.P99Usec = sim.Time(sorted[(99*len(sorted)-1)/100]).Micros()
	}
	if elapsed > 0 {
		pt.GoodputMiBps = float64(delivered*size) / (1 << 20) / elapsed.Seconds()
	}
	return pt
}

// LossSweep measures every (stack, loss rate, size) point as an
// independent runner job and returns them in sweep order (stack
// outermost, then loss rate, then size).
func LossSweep() []LossPoint {
	return lossSweepOver(LossRates(), LossSizes(), LossIters)
}

// lossSweepOver shards an arbitrary (rate, size) grid across the
// figures pool (reduced grids keep the determinism guardrail cheap).
func lossSweepOver(rates []float64, sizes []int, iters int) []LossPoint {
	stacks := lossStacks()
	var jobs []runner.Job
	for _, st := range stacks {
		for _, loss := range rates {
			for _, size := range sizes {
				st, loss, size := st, loss, size
				jobs = append(jobs, runner.Job{
					Label: fmt.Sprintf("loss/%s/%g%%/%s", st.name, loss*100, sizeName(size)),
					Key:   runner.Key("loss", st.s, loss, size, iters),
					Run: func() (any, error) {
						return lossPoint(st.name, st.s, loss, size, iters), nil
					},
				})
			}
		}
	}
	return sweep[LossPoint](jobs)
}

// RenderLoss formats the sweep as a fixed-width table.
func RenderLoss(points []LossPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# ping-pong under symmetric frame loss (seeded impairment, rtx timeout %v)\n", lossRtx)
	fmt.Fprintf(&b, "%-14s %6s %8s %12s %10s %10s %6s %9s %10s\n",
		"stack", "loss", "msgsize", "MiB/s", "p50[usec]", "p99[usec]", "rtx", "wire-lost", "delivered")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %5.1f%% %8s %12.2f %10.2f %10.2f %6d %9d %6d/%d\n",
			p.Stack, p.LossRate*100, sizeName(p.Bytes),
			p.GoodputMiBps, p.P50Usec, p.P99Usec,
			p.Retransmits, p.WireLost, p.Delivered, p.Iters)
	}
	return b.String()
}
