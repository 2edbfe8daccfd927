package cluster_test

// Fat-tree fabric tests: topology shape, ECMP determinism (same seed
// and program ⇒ identical flow→uplink assignment), and the trunk
// incast storm whose congestion drops must be exactly attributed to
// the bounded trunk ports in NetStats.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"omxsim/cluster"
	"omxsim/internal/wire"
	"omxsim/openmx"
	"omxsim/sim"
)

// buildFatTree builds an n-host fat tree with the given shape.
func buildFatTree(n, leafRadix, spines int, policy string, trunkOpts ...cluster.NetOption) *cluster.Cluster {
	return cluster.Build(cluster.Topology{
		Hosts: []cluster.HostSet{{Name: "node", N: n, Indexed: true}},
		Wiring: cluster.FatTree{
			LeafRadix:  leafRadix,
			Spines:     spines,
			ECMPPolicy: policy,
			TrunkOpts:  trunkOpts,
		},
	})
}

func TestFatTreeShape(t *testing.T) {
	c := buildFatTree(8, 4, 2, "")
	defer c.Close()
	sws := c.Switches()
	if len(sws) != 4 {
		t.Fatalf("switches = %d, want 2 leaves + 2 spines", len(sws))
	}
	for i := 0; i < 2; i++ {
		if got := len(sws[i].Wire().Trunks()); got != 2 {
			t.Errorf("leaf %d has %d trunk hoses, want 2 (one per spine)", i, got)
		}
	}
	for i := 2; i < 4; i++ {
		if got := len(sws[i].Wire().Trunks()); got != 2 {
			t.Errorf("spine %d has %d trunk hoses, want 2 (one per leaf)", i-2, got)
		}
	}
	if len(c.Hosts()) != 8 {
		t.Fatalf("hosts = %d, want 8", len(c.Hosts()))
	}
}

// allPairs runs a deterministic all-pairs eager exchange over the
// fat tree: every host sends one small message to every other host
// and receives one from each. Completion is asserted; the traffic's
// purpose is to populate the leaves' ECMP flow tables.
func allPairs(t *testing.T, c *cluster.Cluster, size int) {
	t.Helper()
	hosts := c.Hosts()
	n := len(hosts)
	eps := make([]openmx.Endpoint, n)
	for i, h := range hosts {
		eps[i] = stressStack("openmx", h).Open(0, 2)
	}
	type xfer struct{ src, dst *cluster.Buffer }
	bufs := make(map[[2]int]xfer)
	for i := range hosts {
		for j := range hosts {
			if i == j {
				continue
			}
			x := xfer{src: hosts[i].Alloc(size), dst: hosts[j].Alloc(size)}
			x.src.Fill(byte(i*31 + j + 1))
			bufs[[2]int{i, j}] = x
		}
	}
	completed := 0
	for i := range hosts {
		c.Go(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			var reqs []openmx.Request
			for j := range hosts {
				if j == i {
					continue
				}
				m := bufs[[2]int{j, i}]
				reqs = append(reqs, eps[i].IRecv(p, uint64(j<<16|i), ^uint64(0), m.dst, 0, size))
			}
			for j := range hosts {
				if j == i {
					continue
				}
				m := bufs[[2]int{i, j}]
				reqs = append(reqs, eps[i].ISend(p, eps[j].Addr(), uint64(i<<16|j), m.src, 0, size))
			}
			for _, r := range reqs {
				eps[i].Wait(p, r)
				completed++
			}
		})
	}
	c.RunFor(60 * sim.Second)
	want := 2 * n * (n - 1)
	if completed != want {
		t.Fatalf("all-pairs completed %d/%d operations", completed, want)
	}
	for k, m := range bufs {
		if !cluster.Equal(m.src, m.dst) {
			t.Fatalf("payload %v corrupted", k)
		}
	}
}

// flowPaths snapshots every switch's sticky flow table.
func flowPaths(c *cluster.Cluster) []map[[2]string]string {
	var out []map[[2]string]string
	for _, s := range c.Switches() {
		out = append(out, s.Wire().FlowPaths())
	}
	return out
}

// TestFatTreeECMPDeterminism: two identical builds running the same
// program must assign every flow to the same uplink — for both
// policies — and the hash policy must actually spread flows over
// multiple spines.
func TestFatTreeECMPDeterminism(t *testing.T) {
	for _, policy := range []string{wire.ECMPHash, wire.ECMPRoundRobin} {
		t.Run(policy, func(t *testing.T) {
			run := func() []map[[2]string]string {
				c := buildFatTree(8, 4, 2, policy)
				defer c.Close()
				allPairs(t, c, 1024)
				return flowPaths(c)
			}
			first, second := run(), run()
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("ECMP %s flow assignment differs run-to-run:\nfirst:  %v\nsecond: %v",
					policy, first, second)
			}
			// Leaf 0 carries 4×4 inter-leaf flows per direction; both
			// uplinks must be in use.
			used := map[string]int{}
			for _, up := range first[0] {
				used[up]++
			}
			if len(used) < 2 {
				t.Errorf("ECMP %s used only %v of leaf0's 2 uplinks", policy, used)
			}
		})
	}
}

// TestFatTreeRoundRobinSpreadsEvenly: first-sight round-robin must
// split a leaf's flows exactly in half across 2 spines.
func TestFatTreeRoundRobinSpreadsEvenly(t *testing.T) {
	c := buildFatTree(8, 4, 2, wire.ECMPRoundRobin)
	defer c.Close()
	allPairs(t, c, 1024)
	used := map[string]int{}
	total := 0
	for _, up := range flowPaths(c)[0] {
		used[up]++
		total++
	}
	if len(used) != 2 {
		t.Fatalf("round-robin used %d uplinks, want 2: %v", len(used), used)
	}
	for up, n := range used {
		if n != total/2 {
			t.Errorf("uplink %s carries %d of %d flows, want exact halves (%v)", up, n, total, used)
		}
	}
}

// TestFatTreeIncastTrunkDropAttribution: four senders on two remote
// leaves storm one receiver through a single spine with tiny trunk
// queues. The transfers must survive (retransmission recovers the
// tail-drops), and NetStats must attribute every lost frame to a
// bounded trunk port — host ports, NIC rings and links all stay
// clean, so the per-port sums exactly account for TotalWireLoss.
func TestFatTreeIncastTrunkDropAttribution(t *testing.T) {
	c := buildFatTree(6, 2, 1, "", cluster.Queue(8))
	defer c.Close()
	hosts := c.Hosts()
	eps := make([]openmx.Endpoint, len(hosts))
	for i, h := range hosts {
		eps[i] = stressStack("openmx", h).Open(0, 2)
	}
	// node0 (leaf 0) is the sink; nodes 2..5 (leaves 1 and 2) the storm.
	senders := []int{2, 3, 4, 5}
	const perSender = 6
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
		t.Fatalf("incast delivered %d/%d messages", done, len(senders)*perSender)
	}
	for k, m := range bufs {
		if !cluster.Equal(m.src, m.dst) {
			t.Fatalf("message %v corrupted", k)
		}
	}

	ns := c.NetStats()
	total := ns.TotalWireLoss()
	if total == 0 {
		t.Fatal("incast lost nothing — trunk queues not exercised")
	}
	var trunkDrops, hostPortLoss int64
	spineDownDrops := int64(0)
	for _, sw := range ns.Switches {
		for _, p := range sw.Ports {
			loss := p.Out.FramesDropped + p.Out.FramesLost + p.Out.TailDrops +
				p.In.FramesDropped + p.In.FramesLost + p.In.TailDrops
			if strings.HasPrefix(p.Host, "trunk:") {
				trunkDrops += loss
				if p.Out.TailDrops != loss {
					t.Errorf("trunk port %s lost %d frames beyond its %d tail-drops", p.Host, loss, p.Out.TailDrops)
				}
				if strings.HasSuffix(p.Host, "<") && strings.Contains(p.Host, "leaf0-") {
					spineDownDrops += p.Out.TailDrops
				}
			} else {
				hostPortLoss += loss
			}
		}
	}
	if hostPortLoss != 0 {
		t.Errorf("host-facing switch ports lost %d frames, want 0 (queues unbounded)", hostPortLoss)
	}
	if trunkDrops != total {
		t.Errorf("trunk tail-drops %d != TotalWireLoss %d — drops not fully attributed", trunkDrops, total)
	}
	if spineDownDrops == 0 {
		t.Error("spine's down-trunk to the sink's leaf tail-dropped nothing — incast bottleneck not where expected")
	}
	for _, h := range ns.Hosts {
		if h.RxDrops != 0 {
			t.Errorf("host %s NIC ring dropped %d frames — loss leaked past the trunks", h.Host, h.RxDrops)
		}
	}
	if len(ns.Links) != 0 {
		t.Errorf("fat-tree stats contain %d point-to-point links, want 0", len(ns.Links))
	}
}
