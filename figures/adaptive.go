package figures

import (
	"fmt"
	"sort"
	"strings"

	"omxsim/cluster"
	"omxsim/openmx"
	"omxsim/runner"
	"omxsim/sim"
)

// The adaptive figure (beyond the paper): the paper's pull window and
// retransmission timeout are hand-set constants, and PR 5 showed the
// fixed two-block window plateauing on aggregated links. This sweep
// pits the self-tuning transport tier (Config.Adaptive: AIMD pull
// window + RTT-derived retransmission timeouts + IRQ steering) against
// both static policies — the paper's two blocks and two blocks per
// NIC — across the loss×multinic cross-product: frame-loss rate ×
// NIC count × receive-copy engine. The acceptance bar (pinned by
// TestAdaptiveNeverWorse) is that adaptive matches the best static
// policy at every point, never more than 10% below it: one config
// that needs no hand-tuning for either the clean-aggregated or the
// lossy regime.

// AdaptiveLossRates returns the swept frame-loss probabilities
// ({0–5%}, the loss figure's range).
func AdaptiveLossRates() []float64 { return []float64{0, 0.01, 0.05} }

// AdaptiveNICCounts returns the swept NIC counts.
func AdaptiveNICCounts() []int { return []int{1, 2, 4} }

// adaptiveModes are the compared receive-copy engines.
func adaptiveModes() []string { return []string{"memcpy", "I/OAT"} }

// AdaptivePolicies names the compared window/timeout policies in
// output order: the paper's fixed two blocks, two blocks per NIC
// (both with the loss sweep's tuned 2 ms retransmission timeout), and
// the self-tuning tier.
func AdaptivePolicies() []string { return []string{"static-2", "static-2xN", "adaptive"} }

// AdaptiveMsgSize is the per-iteration message size: a large pull, so
// every transfer exercises the window controller.
const AdaptiveMsgSize = 1 << 20

// AdaptiveIters is the measured ping-pong iteration count per point;
// adaptiveWarmup round trips run first, unmeasured, so every policy
// is scored on steady state (the statics are flat from the first
// iteration; adaptive needs a couple of transfers to calibrate its
// estimator and ramp the window).
const (
	AdaptiveIters  = 10
	adaptiveWarmup = 2
)

// AdaptivePoint is one measured (mode, policy, loss rate, NIC count)
// combination.
type AdaptivePoint struct {
	Mode     string // receive copy: "memcpy" or "I/OAT"
	Policy   string // "static-2", "static-2xN" or "adaptive"
	LossRate float64
	NICs     int
	Bytes    int
	Iters    int

	Delivered int // measured round trips with verified payloads in both directions

	GoodputMiBps float64 // one-way payload goodput over the measured iterations
	P50Usec      float64 // median half-round-trip latency
	P99Usec      float64 // tail half-round-trip latency

	Retransmits int64 // both hosts' eager+rndv+pull retransmissions (whole run)
	WireLost    int64 // frames eaten by the impaired link (both dirs, whole run)
}

// adaptiveConfig builds one policy's Open-MX configuration. The
// statics pin the pull window and take the loss sweep's tuned
// retransmission timeout; adaptive leaves both unset so the AIMD
// controller and the RTT-derived timeout engage.
func adaptiveConfig(mode, policy string, nics int) openmx.Config {
	cfg := openmx.Config{RegCache: true, IOAT: mode == "I/OAT"}
	switch policy {
	case "static-2":
		cfg.PullBlocks = 2
		cfg.RetransmitTimeout = lossRtx
	case "static-2xN":
		cfg.PullBlocks = 2 * nics
		cfg.RetransmitTimeout = lossRtx
	default: // adaptive
		cfg.Adaptive = true
	}
	return cfg
}

// adaptiveSeed derives a point's impairment seed: fixed per
// (loss, NICs) so every policy faces the same adversary.
func adaptiveSeed(loss float64, nics int) int64 {
	return 9103 + int64(loss*10000)*131 + int64(nics)*17
}

// adaptivePoint runs one point on a fresh two-host testbed with nics
// aggregated cables and a seeded impaired link.
func adaptivePoint(mode, policy string, loss float64, nics, size, iters int) AdaptivePoint {
	c := cluster.New(nil)
	irq := cluster.NICIRQCores(multiNICIRQCores...)
	a := c.NewHost("node0", cluster.MultiNIC(nics, irq))
	b := c.NewHost("node1", cluster.MultiNIC(nics, irq))
	if loss > 0 {
		cluster.Link(a, b, cluster.Impair(cluster.Impairment{
			Seed: adaptiveSeed(loss, nics), LossRate: loss,
		}))
	} else {
		cluster.Link(a, b)
	}
	cfg := adaptiveConfig(mode, policy, nics)
	sa, sb := openmx.Attach(a, cfg), openmx.Attach(b, cfg)
	ea, eb := sa.Open(0, 2), sb.Open(0, 2)

	sendA, recvA := a.Alloc(size), a.Alloc(size)
	sendB, recvB := b.Alloc(size), b.Alloc(size)

	total := adaptiveWarmup + iters
	lat := make([]sim.Duration, 0, iters)
	delivered := 0
	var tStart, elapsed sim.Time
	c.Go("rankB", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			r := eb.IRecv(p, uint64(i), ^uint64(0), recvB, 0, size)
			eb.Wait(p, r)
			sendB.Fill(byte(2*i + 2))
			sendB.Produce(2)
			eb.Wait(p, eb.ISend(p, ea.Addr(), uint64(1000+i), sendB, 0, size))
		}
	})
	c.Go("rankA", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			if i == adaptiveWarmup {
				tStart = p.Now()
			}
			t0 := p.Now()
			sendA.Fill(byte(2*i + 1))
			sendA.Produce(2)
			rs := ea.ISend(p, eb.Addr(), uint64(i), sendA, 0, size)
			rr := ea.IRecv(p, uint64(1000+i), ^uint64(0), recvA, 0, size)
			ea.Wait(p, rs)
			ea.Wait(p, rr)
			if i < adaptiveWarmup {
				continue
			}
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

	pt := AdaptivePoint{
		Mode: mode, Policy: policy, LossRate: loss, NICs: nics,
		Bytes: size, Iters: iters,
		Delivered:   delivered,
		Retransmits: sa.Stats().Retransmits() + sb.Stats().Retransmits(),
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
	if elapsed > tStart {
		pt.GoodputMiBps = float64(delivered*size) / (1 << 20) / (elapsed - tStart).Seconds()
	}
	return pt
}

// AdaptiveSweep measures every (mode, policy, loss, NICs) point as an
// independent runner job, in sweep order (mode outermost, then loss,
// then NICs, then policy).
func AdaptiveSweep() []AdaptivePoint {
	return adaptiveSweepOver(AdaptiveLossRates(), AdaptiveNICCounts(), AdaptiveIters)
}

// adaptiveSweepOver shards an arbitrary (loss, NICs) grid across the
// figures pool (reduced grids keep the guardrail tests cheap).
func adaptiveSweepOver(rates []float64, counts []int, iters int) []AdaptivePoint {
	var jobs []runner.Job
	for _, mode := range adaptiveModes() {
		for _, loss := range rates {
			for _, nics := range counts {
				for _, policy := range AdaptivePolicies() {
					mode, policy, loss, nics := mode, policy, loss, nics
					jobs = append(jobs, runner.Job{
						Label: fmt.Sprintf("adaptive/%s/%g%%/%dnic/%s", mode, loss*100, nics, policy),
						Key:   runner.Key("adaptive", mode, policy, loss, nics, AdaptiveMsgSize, iters),
						Run: func() (any, error) {
							return adaptivePoint(mode, policy, loss, nics, AdaptiveMsgSize, iters), nil
						},
					})
				}
			}
		}
	}
	return sweep[AdaptivePoint](jobs)
}

// RenderAdaptive formats the sweep: one row per (mode, loss, NICs)
// with goodput under each policy, adaptive's ratio to the best
// static, its tail latency and the retransmission counts.
func RenderAdaptive(points []AdaptivePoint) string {
	byKey := make(map[string]AdaptivePoint, len(points))
	key := func(mode, policy string, loss float64, nics int) string {
		return fmt.Sprintf("%s/%s/%g/%d", mode, policy, loss, nics)
	}
	for _, p := range points {
		byKey[key(p.Mode, p.Policy, p.LossRate, p.NICs)] = p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# adaptive vs static transport: %s ping-pong goodput across loss x NICs (%d iters after %d warmup, seeded impairment)\n",
		sizeName(AdaptiveMsgSize), AdaptiveIters, adaptiveWarmup)
	fmt.Fprintf(&b, "# static-2 = 2 pull blocks, static-2xN = 2 per NIC (both rtx %v); adaptive = AIMD window + RTT-derived timeouts\n", lossRtx)
	fmt.Fprintf(&b, "%-7s %5s %4s %11s %11s %11s %8s %10s %6s %9s\n",
		"copy", "loss", "nics", "static-2", "static-2xN", "adaptive", "adv/best", "p99[usec]", "rtx", "delivered")
	for _, mode := range adaptiveModes() {
		for _, loss := range AdaptiveLossRates() {
			for _, nics := range AdaptiveNICCounts() {
				s2 := byKey[key(mode, "static-2", loss, nics)]
				sn := byKey[key(mode, "static-2xN", loss, nics)]
				ad := byKey[key(mode, "adaptive", loss, nics)]
				best := max(s2.GoodputMiBps, sn.GoodputMiBps)
				ratio := 0.0
				if best > 0 {
					ratio = ad.GoodputMiBps / best
				}
				fmt.Fprintf(&b, "%-7s %4.1f%% %4d %11.2f %11.2f %11.2f %8.2f %10.2f %6d %6d/%d\n",
					mode, loss*100, nics,
					s2.GoodputMiBps, sn.GoodputMiBps, ad.GoodputMiBps, ratio,
					ad.P99Usec, ad.Retransmits, ad.Delivered, ad.Iters)
			}
		}
	}
	return b.String()
}
