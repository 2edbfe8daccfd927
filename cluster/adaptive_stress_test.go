package cluster_test

// The adaptive-transport stress battery: the self-tuning tier
// (RTT-derived retransmission timeouts, AIMD pull windows, load-based
// IRQ steering) run through the same adversarial rigs the static
// stacks survive — seeded randomized storms under impairment, striping
// across skewed/lossy aggregated lanes, and a fat-tree incast with
// background cross traffic squeezing bounded trunk queues. Every
// payload byte is verified; OMXSIM_STRESS_SEEDS widens the sweeps.

import (
	"fmt"
	"testing"

	"omxsim/cluster"
	"omxsim/openmx"
	"omxsim/sim"
)

// adaptiveCombos pairs the two adaptive stacks, including the interop
// pairing — the tuners run independently per host, so a mixed pair
// must converge just like a homogeneous one.
func adaptiveCombos() [][2]string {
	return [][2]string{
		{"openmx-adaptive", "openmx-adaptive"},
		{"mxoe-adaptive", "mxoe-adaptive"},
		{"openmx-adaptive", "mxoe-adaptive"},
	}
}

// TestAdaptiveStormUnderImpairment is the randomized storm battery
// with the self-tuning tier in place of the hand-tuned timeout: 3%
// loss plus reordering, duplication and jitter, shuffled posting
// across many endpoints, every payload verified. The loss rate is
// three times the static storm's — the whole point of the tier is
// recovering fast when the wire is bad.
func TestAdaptiveStormUnderImpairment(t *testing.T) {
	seeds := stressSeeds(t)
	eps, count := 3, 3
	if testing.Short() {
		eps, count = 2, 2
	}
	for _, combo := range adaptiveCombos() {
		t.Run(fmt.Sprintf("%s-%s", combo[0], combo[1]), func(t *testing.T) {
			for s := 0; s < seeds; s++ {
				seed := int64(7000 + s*13)
				runStormWith(t, combo[0], combo[1], seed, 1, eps, count,
					cluster.Impair(cluster.Impairment{
						Seed:        seed,
						LossRate:    0.03,
						ReorderRate: 0.05,
						DupRate:     0.01,
						JitterMax:   2 * sim.Microsecond,
					}))
			}
		})
	}
}

// TestAdaptiveStripingUnderSkew storms the adaptive stacks across a
// three-NIC aggregated link with one lossy/reordering lane and one
// negotiated down to a quarter rate with jitter: the RTT estimator
// sees a bimodal sample stream and the AIMD window sees persistent
// per-lane loss, and every message must still arrive intact.
func TestAdaptiveStripingUnderSkew(t *testing.T) {
	seeds := stressSeeds(t)
	// No -short reduction: a 2x2 storm stripes too little onto the
	// impaired lane to mean anything, and the full 3x3 storm is
	// tens of milliseconds per combination anyway.
	eps, count := 3, 3
	const nics = 3
	for _, combo := range adaptiveCombos() {
		t.Run(fmt.Sprintf("%s-%s", combo[0], combo[1]), func(t *testing.T) {
			for s := 0; s < seeds; s++ {
				seed := int64(8100 + s*29)
				runStormWith(t, combo[0], combo[1], seed, nics, eps, count,
					cluster.ImpairLane(1, cluster.Impairment{
						Seed:        seed,
						LossRate:    0.08,
						ReorderRate: 0.1,
						DupRate:     0.02,
					}),
					cluster.ImpairLane(2, cluster.Impairment{
						Seed:      seed + 1,
						RateScale: 0.25,
						JitterMax: 5 * sim.Microsecond,
					}),
				)
			}
		})
	}
}

// TestAdaptiveIncastWithCrossTraffic squeezes an adaptive incast
// through a fat tree: three senders on remote leaves converge on one
// sink behind tiny trunk queues while a generator on a third leaf
// floods the sink's leaf with background cross traffic. Congestion
// tail-drop is the loss process the AIMD controller exists for — the
// storm must complete with every payload intact, and the trunks must
// actually have dropped frames.
func TestAdaptiveIncastWithCrossTraffic(t *testing.T) {
	perSender := 6
	if testing.Short() {
		perSender = 4
	}
	c := buildFatTree(6, 2, 1, "", cluster.Queue(8))
	defer c.Close()
	hosts := c.Hosts()
	eps := make([]openmx.Endpoint, len(hosts))
	for i, h := range hosts {
		eps[i] = stressStack("openmx-adaptive", h).Open(0, 2)
	}
	// node0 (leaf 0) is the sink, nodes 2..4 (leaves 1 and 2) the
	// storm; node5 generates cross traffic into the sink's leaf.
	senders := []int{2, 3, 4}
	c.StartCrossTraffic(hosts[5], hosts[0], cluster.CrossTrafficConfig{
		Seed: 11, BytesPerSec: 400e6, FrameBytes: 4096, Duration: 300 * sim.Millisecond,
	})

	n := 64 * 1024
	type pair struct{ src, dst *cluster.Buffer }
	bufs := make(map[[2]int]pair)
	for _, s := range senders {
		for k := 0; k < perSender; k++ {
			p := pair{src: hosts[s].Alloc(n), dst: hosts[0].Alloc(n)}
			p.src.Fill(byte(s*perSender + k + 1))
			bufs[[2]int{s, k}] = p
		}
	}
	done := 0
	c.Go("sink", func(p *sim.Proc) {
		var reqs []openmx.Request
		for _, s := range senders {
			for k := 0; k < perSender; k++ {
				m := bufs[[2]int{s, k}]
				reqs = append(reqs, eps[0].IRecv(p, uint64(s<<8|k), ^uint64(0), m.dst, 0, n))
			}
		}
		for _, r := range reqs {
			eps[0].Wait(p, r)
			done++
		}
	})
	for _, s := range senders {
		c.Go(fmt.Sprintf("storm%d", s), func(p *sim.Proc) {
			for k := 0; k < perSender; k++ {
				m := bufs[[2]int{s, k}]
				eps[s].Wait(p, eps[s].ISend(p, eps[0].Addr(), uint64(s<<8|k), m.src, 0, n))
			}
		})
	}
	c.RunFor(120 * sim.Second)
	if done != len(senders)*perSender {
		t.Fatalf("adaptive incast delivered %d/%d messages", done, len(senders)*perSender)
	}
	for k, m := range bufs {
		if !cluster.Equal(m.src, m.dst) {
			t.Fatalf("message %v corrupted", k)
		}
	}
	if ns := c.NetStats(); ns.TotalWireLoss() == 0 {
		t.Fatal("incast plus cross traffic lost nothing — trunk queues not exercised")
	}
}
