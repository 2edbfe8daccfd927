package cluster_test

// Seeded randomized message storms under network impairment, across
// all three stack combinations (Open-MX ↔ Open-MX, native MX ↔ native
// MX, and the mixed interop pair): many endpoints per host, mixed
// tiny-through-large messages, shuffled posting order, 1 % loss plus
// reordering, duplication and jitter on every link — with end-to-end
// payload verification of every message. The fast (-short) gate runs
// one seed per combination; the full suite and `make stress` sweep
// more (OMXSIM_STRESS_SEEDS overrides the count).

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"omxsim/cluster"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

const stressRtx = 2 * sim.Millisecond

// stressStack attaches one stack kind to a host and opens endpoints.
// The "-adaptive" kinds leave the retransmission timeout unset so the
// self-tuning tier (RTT-derived timeouts, AIMD pull window, load-based
// steering) faces the storm instead of the hand-tuned 2 ms clamp.
func stressStack(kind string, h *cluster.Host) openmx.Transport {
	switch kind {
	case "mxoe":
		return mxoe.Attach(h, mxoe.Config{RegCache: true, RetransmitTimeout: stressRtx})
	case "mxoe-adaptive":
		return mxoe.Attach(h, mxoe.Config{RegCache: true, Adaptive: true})
	case "openmx-adaptive":
		return openmx.Attach(h, openmx.Config{IOAT: true, RegCache: true, Adaptive: true})
	default:
		return openmx.Attach(h, openmx.Config{
			IOAT: true, RegCache: true, RetransmitTimeout: stressRtx,
		})
	}
}

// stressCombos are the three stack pairings under test.
func stressCombos() [][2]string {
	return [][2]string{{"openmx", "openmx"}, {"mxoe", "mxoe"}, {"openmx", "mxoe"}}
}

// stressSeeds reports how many seeds to sweep per combination.
func stressSeeds(t *testing.T) int {
	if s := os.Getenv("OMXSIM_STRESS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad OMXSIM_STRESS_SEEDS %q", s)
		}
		return n
	}
	if testing.Short() {
		return 1
	}
	return 3
}

// stressSize draws a message size across the protocol's classes:
// tiny, small, medium (eager) and large (rendezvous pull).
func stressSize(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(33) // tiny, incl. zero bytes
	case 1:
		return 33 + rng.Intn(4064) // small / single-frag medium
	case 2:
		return 4 * 1024 * (1 + rng.Intn(8)) // multi-frag medium
	default:
		return 33*1024 + rng.Intn(200*1024) // rendezvous
	}
}

// msg is one verified transfer of the storm.
type msg struct {
	match    uint64
	src, dst *cluster.Buffer
	size     int
}

// runStorm builds a two-host impaired testbed with eps endpoints per
// host, fires count messages from every endpoint to every remote
// endpoint in both directions (shuffled posting order), and verifies
// every payload byte.
func runStorm(t *testing.T, kindA, kindB string, seed int64, eps, count int) {
	runStormWith(t, kindA, kindB, seed, 1, eps, count,
		cluster.Impair(cluster.Impairment{
			Seed:        seed,
			LossRate:    0.01,
			ReorderRate: 0.05,
			DupRate:     0.01,
			JitterMax:   2 * sim.Microsecond,
		}))
}

// runStormWith is runStorm over an arbitrary aggregated-link topology:
// nics NICs per host and explicit link options (per-lane impairment,
// skew).
func runStormWith(t *testing.T, kindA, kindB string, seed int64, nics, eps, count int, linkOpts ...cluster.NetOption) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var hostOpts []cluster.HostOption
	if nics > 1 {
		hostOpts = append(hostOpts, cluster.MultiNIC(nics))
	}
	c := cluster.Build(cluster.Topology{
		Hosts: []cluster.HostSet{
			{Name: "hostA", Opts: hostOpts},
			{Name: "hostB", Opts: hostOpts},
		},
		Wiring: cluster.BackToBack{Opts: linkOpts},
	})
	a, b := c.Host("hostA"), c.Host("hostB")
	ta, tb := stressStack(kindA, a), stressStack(kindB, b)
	epsA := make([]openmx.Endpoint, eps)
	epsB := make([]openmx.Endpoint, eps)
	for i := 0; i < eps; i++ {
		epsA[i] = ta.Open(i, 1+i%6)
		epsB[i] = tb.Open(i, 1+(i+1)%6)
	}

	// Plan every flow up front: flows[d][i][j] is the message list
	// from endpoint i to remote endpoint j in direction d (0 = A→B).
	plan := func(srcH, dstH *cluster.Host, dir int) [][][]msg {
		out := make([][][]msg, eps)
		for i := range out {
			out[i] = make([][]msg, eps)
			for j := range out[i] {
				for k := 0; k < count; k++ {
					n := stressSize(rng)
					m := msg{
						match: uint64(dir)<<40 | uint64(i)<<32 | uint64(j)<<16 | uint64(k),
						src:   srcH.Alloc(n), dst: dstH.Alloc(n), size: n,
					}
					m.src.Fill(byte(rng.Intn(255) + 1))
					out[i][j] = append(out[i][j], m)
				}
			}
		}
		return out
	}
	ab := plan(a, b, 0)
	ba := plan(b, a, 1)

	completed := 0
	want := 0
	spawn := func(name string, ep openmx.Endpoint, peers []openmx.Endpoint, out [][]msg, in [][]msg, shuffle *rand.Rand) {
		// Gather this endpoint's sends and expected receives, then
		// post them interleaved in a seeded random order — arrival
		// order and posting order must not matter.
		type op struct {
			send bool
			m    msg
			peer openmx.Endpoint
		}
		var ops []op
		for j, ms := range out {
			for _, m := range ms {
				ops = append(ops, op{send: true, m: m, peer: peers[j]})
			}
		}
		for _, ms := range in {
			for _, m := range ms {
				ops = append(ops, op{m: m})
			}
		}
		shuffle.Shuffle(len(ops), func(x, y int) { ops[x], ops[y] = ops[y], ops[x] })
		c.Go(name, func(p *sim.Proc) {
			var reqs []openmx.Request
			for _, o := range ops {
				if o.send {
					reqs = append(reqs, ep.ISend(p, o.peer.Addr(), o.m.match, o.m.src, 0, o.m.size))
				} else {
					reqs = append(reqs, ep.IRecv(p, o.m.match, ^uint64(0), o.m.dst, 0, o.m.size))
				}
			}
			for _, r := range reqs {
				ep.Wait(p, r)
				completed++
			}
		})
	}
	for i := 0; i < eps; i++ {
		// in[j][k] for endpoint i on A: messages B's endpoint j sends to A's i.
		inA := make([][]msg, eps)
		inB := make([][]msg, eps)
		for j := 0; j < eps; j++ {
			inA[j] = ba[j][i]
			inB[j] = ab[j][i]
		}
		spawn(fmt.Sprintf("A%d", i), epsA[i], epsB, ab[i], inA, rand.New(rand.NewSource(seed+int64(i)+100)))
		spawn(fmt.Sprintf("B%d", i), epsB[i], epsA, ba[i], inB, rand.New(rand.NewSource(seed+int64(i)+200)))
		for j := 0; j < eps; j++ {
			want += len(ab[i][j]) + len(ba[i][j]) // sends
		}
	}
	want *= 2 // each message completes once as a send, once as a receive

	c.RunFor(120 * sim.Second)
	defer c.Close()
	if completed != want {
		t.Fatalf("%s↔%s seed %d: %d/%d operations completed (deadlock or lost message)",
			kindA, kindB, seed, completed, want)
	}
	bad := 0
	check := func(flows [][][]msg) {
		for _, byPeer := range flows {
			for _, ms := range byPeer {
				for _, m := range ms {
					if !cluster.Equal(m.src, m.dst) {
						bad++
					}
				}
			}
		}
	}
	check(ab)
	check(ba)
	if bad > 0 {
		t.Fatalf("%s↔%s seed %d: %d corrupted payloads", kindA, kindB, seed, bad)
	}
	if ns := c.NetStats(); ns.TotalWireLoss() == 0 {
		t.Fatalf("%s↔%s seed %d: impairment lost nothing — storm too small to mean anything", kindA, kindB, seed)
	}
}

// TestStressStormUnderImpairment is the storm battery across the
// three stack combinations.
func TestStressStormUnderImpairment(t *testing.T) {
	seeds := stressSeeds(t)
	eps, count := 3, 3
	if testing.Short() {
		eps, count = 2, 2
	}
	for _, combo := range stressCombos() {
		t.Run(fmt.Sprintf("%s-%s", combo[0], combo[1]), func(t *testing.T) {
			for s := 0; s < seeds; s++ {
				runStorm(t, combo[0], combo[1], int64(1000+s*17), eps, count)
			}
		})
	}
}

// TestStressStripingUnderSkew is the striping stress battery: three
// NICs per host, traffic striped across the aggregated link, with one
// lane lossy/reordering (per-NIC impairment) and another negotiated
// down to a quarter of the rate plus jitter (cross-NIC skew) — the
// adversarial interleavings hole-aware reassembly exists for. All
// three stack combinations, shuffled posting, every payload verified;
// OMXSIM_STRESS_SEEDS widens the sweep.
func TestStressStripingUnderSkew(t *testing.T) {
	seeds := stressSeeds(t)
	eps, count := 3, 3
	if testing.Short() {
		eps, count = 2, 2
	}
	const nics = 3
	for _, combo := range stressCombos() {
		t.Run(fmt.Sprintf("%s-%s", combo[0], combo[1]), func(t *testing.T) {
			for s := 0; s < seeds; s++ {
				seed := int64(4000 + s*31)
				runStormWith(t, combo[0], combo[1], seed, nics, eps, count,
					// Lane 1's cable is bad: loss, reordering, duplicates.
					cluster.ImpairLane(1, cluster.Impairment{
						Seed:        seed,
						LossRate:    0.05,
						ReorderRate: 0.1,
						DupRate:     0.02,
					}),
					// Lane 2 negotiated down and jittery: persistent
					// cross-NIC skew without loss.
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

// TestStripedLossAttributedToLane: with only lane 1 of an aggregated
// link impaired, NetStats must attribute every wire loss to exactly
// that lane — and the clean lanes must still have carried traffic
// (the striping actually spread the storm).
func TestStripedLossAttributedToLane(t *testing.T) {
	c := cluster.New(nil)
	a := c.NewHost("hostA", cluster.MultiNIC(3))
	b := c.NewHost("hostB", cluster.MultiNIC(3))
	cluster.Link(a, b, cluster.ImpairLane(1, cluster.Impairment{Seed: 9, LossRate: 0.05}))
	ta, tb := stressStack("openmx", a), stressStack("openmx", b)
	ea, eb := ta.Open(0, 4), tb.Open(0, 4)
	const count = 12
	n := 96 * 1024
	srcs := make([]*cluster.Buffer, count)
	dsts := make([]*cluster.Buffer, count)
	for i := range srcs {
		srcs[i], dsts[i] = a.Alloc(n), b.Alloc(n)
		srcs[i].Fill(byte(i + 1))
	}
	done := 0
	c.Go("recv", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r := eb.IRecv(p, uint64(i), ^uint64(0), dsts[i], 0, n)
			eb.Wait(p, r)
			done++
		}
	})
	c.Go("send", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			ea.Wait(p, ea.ISend(p, eb.Addr(), uint64(i), srcs[i], 0, n))
		}
	})
	c.RunFor(60 * sim.Second)
	defer c.Close()
	if done != count {
		t.Fatalf("delivered %d/%d over the impaired aggregated link", done, count)
	}
	for i := range srcs {
		if !cluster.Equal(srcs[i], dsts[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
	ns := c.NetStats()
	l := ns.Links[0]
	if len(l.Lanes) != 3 {
		t.Fatalf("lanes in stats: %d, want 3", len(l.Lanes))
	}
	for _, lane := range l.Lanes {
		lost := lane.AB.FramesLost + lane.BA.FramesLost
		if lane.Lane == 1 && lost == 0 {
			t.Error("impaired lane 1 lost nothing")
		}
		if lane.Lane != 1 && lost != 0 {
			t.Errorf("clean lane %d lost %d frames", lane.Lane, lost)
		}
		if lane.AB.FramesSent == 0 {
			t.Errorf("lane %d carried no A→B traffic — striping not spreading", lane.Lane)
		}
	}
	if l.AB.FramesLost != l.Lanes[1].AB.FramesLost {
		t.Errorf("aggregate AB loss %d != lane 1's %d", l.AB.FramesLost, l.Lanes[1].AB.FramesLost)
	}
	// Per-NIC host counters sum to the host totals and every NIC saw
	// frames.
	for _, h := range ns.Hosts {
		var tx, rx, drops int64
		for _, nicStat := range h.NICs {
			tx += nicStat.TxFrames
			rx += nicStat.RxFrames
			drops += nicStat.RxDrops
			if nicStat.RxFrames == 0 {
				t.Errorf("host %s NIC %s received nothing", h.Host, nicStat.NIC)
			}
		}
		if tx != h.TxFrames || rx != h.RxFrames || drops != h.RxDrops {
			t.Errorf("host %s per-NIC sums (%d,%d,%d) != totals (%d,%d,%d)",
				h.Host, tx, rx, drops, h.TxFrames, h.RxFrames, h.RxDrops)
		}
	}
}

// TestStormThroughCongestedSwitch runs the Open-MX storm through a
// switch with tiny bounded output queues plus background cross
// traffic: congestion tail-drop must be survivable, and the drop
// counters must show it happened.
func TestStormThroughCongestedSwitch(t *testing.T) {
	c := cluster.Build(cluster.Topology{
		Hosts: []cluster.HostSet{
			{Name: "hostA"}, {Name: "hostB"},
			{Name: "hostG"}, // cross-traffic generator
		},
		Wiring: cluster.SingleSwitch{Opts: []cluster.NetOption{cluster.Queue(8)}},
	})
	a, b, g := c.Host("hostA"), c.Host("hostB"), c.Host("hostG")
	ta := stressStack("openmx", a)
	tb := stressStack("openmx", b)
	stressStack("openmx", g) // gives the generator's frames a discarding stack
	ea, eb := ta.Open(0, 2), tb.Open(0, 2)
	c.StartCrossTraffic(g, b, cluster.CrossTrafficConfig{
		Seed: 5, BytesPerSec: 600e6, FrameBytes: 4096, Duration: 200 * sim.Millisecond,
	})

	const count = 20
	n := 64 * 1024
	srcs := make([]*cluster.Buffer, count)
	dsts := make([]*cluster.Buffer, count)
	for i := range srcs {
		srcs[i], dsts[i] = a.Alloc(n), b.Alloc(n)
		srcs[i].Fill(byte(i + 1))
	}
	done := 0
	c.Go("recv", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			r := eb.IRecv(p, uint64(i), ^uint64(0), dsts[i], 0, n)
			eb.Wait(p, r)
			done++
		}
	})
	c.Go("send", func(p *sim.Proc) {
		var reqs []openmx.Request
		for i := 0; i < count; i++ {
			reqs = append(reqs, ea.ISend(p, eb.Addr(), uint64(i), srcs[i], 0, n))
		}
		for _, r := range reqs {
			ea.Wait(p, r)
		}
	})
	c.RunFor(60 * sim.Second)
	defer c.Close()
	if done != count {
		t.Fatalf("completed %d/%d through the congested switch", done, count)
	}
	for i := range srcs {
		if !cluster.Equal(srcs[i], dsts[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
	ns := c.NetStats()
	if len(ns.Switches) != 1 {
		t.Fatalf("switches in stats: %d", len(ns.Switches))
	}
	var tailDrops int64
	for _, p := range ns.Switches[0].Ports {
		tailDrops += p.Out.TailDrops
	}
	if tailDrops == 0 {
		t.Fatal("congested switch tail-dropped nothing — queue bound not exercised")
	}
	// The per-NIC split must stay an exact partition of the host
	// totals (tail-drop at the switch, ring-drop at the NIC and
	// delivery are disjoint per NIC, so the sums can only match if
	// nothing is double-counted).
	for _, h := range ns.Hosts {
		var tx, rx, drops int64
		for _, nicStat := range h.NICs {
			tx += nicStat.TxFrames
			rx += nicStat.RxFrames
			drops += nicStat.RxDrops
		}
		if tx != h.TxFrames || rx != h.RxFrames || drops != h.RxDrops {
			t.Fatalf("host %s per-NIC sums (%d,%d,%d) != totals (%d,%d,%d)",
				h.Host, tx, rx, drops, h.TxFrames, h.RxFrames, h.RxDrops)
		}
	}
}
