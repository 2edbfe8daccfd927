package figures

import (
	"fmt"
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
func lossStacks() []curve {
	omx := func(ioat bool) openmx.Config {
		return openmx.Config{IOAT: ioat, RegCache: true, RetransmitTimeout: lossRtx}
	}
	return []curve{
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
	defer c.Close()
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
	lat, delivered, elapsed := pingPong(c, ta.Open(0, 2), tb.Open(0, 2), size, 0, iters, 120*sim.Second)
	pt := LossPoint{
		Stack: name, LossRate: loss, Bytes: size, Iters: iters,
		Delivered:    delivered,
		GoodputMiBps: goodput(delivered, size, elapsed),
		Retransmits:  rtxA() + rtxB(),
		WireLost:     wireLost(c),
	}
	pt.P50Usec, pt.P99Usec = percentiles(lat)
	return pt
}

// LossSweep measures every (stack, loss rate, size) point of the grid
// as an independent runner job and returns them in sweep order (stack
// outermost, then loss rate, then size). The section renders the
// default grid (LossRates, LossSizes, LossIters).
func LossSweep(rates []float64, sizes []int, iters int) []LossPoint {
	var jobs []runner.Job
	for _, st := range lossStacks() {
		for _, loss := range rates {
			for _, size := range sizes {
				jobs = append(jobs, job(fmt.Sprintf("loss/%s/%g%%/%s", st.name, loss*100, sizeName(size)),
					runner.Key("loss", st.s, loss, size, iters),
					func() LossPoint { return lossPoint(st.name, st.s, loss, size, iters) }))
			}
		}
	}
	return sweep[LossPoint](jobs...)
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
