package figures

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/imb"
	"omxsim/metrics"
	"omxsim/mpi"
	"omxsim/openmx"
	"omxsim/runner"
)

// The fat-tree figure (beyond the paper): collective latency on
// 64–512-rank worlds wired as a 2-tier leaf/spine Clos fabric, with
// I/OAT copy offload on and off. The paper's testbed stopped at two
// hosts; this sweep asks whether its receive-side offload still pays
// once the interconnect itself is oversubscribed and flows share
// spine trunks ECMP-style. Where a single switch can still hold the
// world (64 ranks = 32 nodes) the figure keeps a 1-switch series as
// the flat-topology baseline, which doubles as the collective-shape
// regression run at 64+ ranks.

// Fat-tree shape: 16 host ports per leaf sharing 4 spine uplinks —
// the classic 4:1 oversubscribed pod.
const (
	ftLeafRadix = 16
	ftSpines    = 4
	ftPpn       = 2 // ranks per node, as in the paper's MPICH runs
)

// ftSingleSwitchMaxNodes bounds the flat-baseline series: beyond 32
// nodes a single store-and-forward switch is no longer a realistic
// comparison (nor would real hardware offer the port count).
const ftSingleSwitchMaxNodes = 32

// ftAlltoallMaxRanks bounds the Alltoall sweep: per-rank buffers grow
// with p·n, so 512-rank Alltoall would spend its time in allocation,
// not in the network under test.
const ftAlltoallMaxRanks = 128

// FatTreeRanks returns the swept world sizes (ranks, at ftPpn per
// node).
func FatTreeRanks() []int { return []int{64, 128, 256, 512} }

// FatTreeAllreduceSizes returns the Allreduce sweep sizes: an eager
// latency point and a rendezvous bandwidth point, straddling the
// ring-chunk floor at the larger worlds.
func FatTreeAllreduceSizes() []int { return []int{1 << 10, 64 << 10} }

// FatTreeAlltoallSizes returns the Alltoall sweep sizes.
func FatTreeAlltoallSizes() []int { return []int{1 << 10} }

// FatTreeLossRate is the trunk frame-loss probability of the
// regression point.
const FatTreeLossRate = 0.01

// fatTreeTestbed builds a nodes-machine world wired as the figure's
// leaf/spine fabric, ppn ranks per node. The caller closes the
// cluster.
func fatTreeTestbed(s Stack, nodes, ppn int, trunkOpts ...cluster.NetOption) (*cluster.Cluster, *mpi.World) {
	c := cluster.Build(cluster.Topology{
		Hosts: []cluster.HostSet{{Name: "node", N: nodes, Indexed: true}},
		Wiring: cluster.FatTree{
			LeafRadix: ftLeafRadix,
			Spines:    ftSpines,
			TrunkOpts: trunkOpts,
		},
	})
	return c, worldOver(c, s, ppn)
}

// ftTopos lists the topologies compared at a given node count.
func ftTopos(nodes int) []string {
	if nodes <= ftSingleSwitchMaxNodes {
		return []string{"1-switch", "fat-tree"}
	}
	return []string{"fat-tree"}
}

// ftCase is one swept (collective, sizes, ranks-subset) shape.
type ftCase struct {
	test     string
	sizes    []int
	maxRanks int
}

func ftCases() []ftCase {
	return []ftCase{
		{"Allreduce", FatTreeAllreduceSizes(), 512},
		{"Alltoall", FatTreeAlltoallSizes(), ftAlltoallMaxRanks},
	}
}

// FatTreeLossPoint is the trunk-loss regression measurement: the
// 64-rank Alltoall rerun with every leaf–spine trunk dropping frames.
// Alltoall is the all-pairs pattern, so (unlike the neighbor-ring
// Allreduce, which block placement keeps mostly intra-leaf) a large
// share of its frames actually traverse the impaired trunks.
type FatTreeLossPoint struct {
	Ranks    int
	LossRate float64
	Bytes    int
	TimeUsec float64 // per-iteration Alltoall time under loss
	WireLost int64   // frames eaten by the impaired trunks (all of them)
}

// FatTree regenerates the fat-tree figure: one table per collective
// (series per stack × world × topology) plus the trunk-loss
// regression point.
func FatTree() ([]*metrics.Table, FatTreeLossPoint) {
	return fatTreeTables(ftCases(), FatTreeRanks()), fatTreeLossPoint()
}

// fatTreeTables sweeps every (case, ranks, topology, stack) run as an
// independent IMB point on a fresh testbed (reduced grids keep the
// determinism guardrail cheap).
func fatTreeTables(cases []ftCase, ranksList []int) []*metrics.Table {
	type meta struct {
		test   string
		series string
	}
	var runs []imbRun
	var metas []meta
	for _, cs := range cases {
		for _, ranks := range ranksList {
			if ranks > cs.maxRanks {
				continue
			}
			nodes := ranks / ftPpn
			for _, topo := range ftTopos(nodes) {
				for _, st := range collStacks() {
					runs = append(runs, imbRun{s: st.s, nodes: nodes, ppn: ftPpn, fatTree: topo == "fat-tree",
						test: cs.test, sizes: cs.sizes, iters: 1})
					metas = append(metas, meta{
						test:   cs.test,
						series: fmt.Sprintf("%s, %d procs, %s", st.name, ranks, topo),
					})
				}
			}
		}
	}
	results := imbSweep(runs)
	tabByTest := map[string]*metrics.Table{}
	var tables []*metrics.Table
	for i, m := range metas {
		tab := tabByTest[m.test]
		if tab == nil {
			tab = metrics.NewTable(
				fmt.Sprintf("Fat-tree collective latency: %s with I/OAT offload on/off", m.test),
				"msgsize", "t[usec]")
			tabByTest[m.test] = tab
			tables = append(tables, tab)
		}
		s := tab.AddSeries(m.series)
		for _, res := range results[i] {
			s.Add(float64(res.Bytes), res.TimeUsec)
		}
	}
	return tables
}

// fatTreeLossPoint reruns the 64-rank fat-tree Alltoall with lossy
// trunks: the loss-shape regression evidence at scale. The stack runs
// a production-style retransmission timeout (as in the loss figure)
// so recovery, not the paper's 50 ms default, dominates the tail.
func fatTreeLossPoint() FatTreeLossPoint {
	const ranks = 64
	size := FatTreeAlltoallSizes()[0]
	run := func() FatTreeLossPoint {
		s := Stack{Kind: "openmx", OMX: openmx.Config{
			IOAT: true, RegCache: true, RetransmitTimeout: lossRtx,
		}}
		c, w := fatTreeTestbed(s, ranks/ftPpn, ftPpn, cluster.Impair(cluster.Impairment{
			Seed: lossSeed(FatTreeLossRate, size), LossRate: FatTreeLossRate,
		}))
		defer c.Close()
		r := &imb.Runner{C: c, W: w, Iters: func(int) int { return 1 }}
		res := r.Run("Alltoall", []int{size})
		return FatTreeLossPoint{
			Ranks: ranks, LossRate: FatTreeLossRate, Bytes: size,
			TimeUsec: res[0].TimeUsec,
			WireLost: c.NetStats().TotalWireLoss(),
		}
	}
	return sweep[FatTreeLossPoint](job(fmt.Sprintf("fattree/loss/%dranks", ranks),
		runner.Key("fattree-loss", ranks, ftPpn, size, FatTreeLossRate, "fixed1"), run))[0]
}

// RenderFatTree formats the fat-tree tables plus the footer recording
// the fabric shape, the algorithm each point selected, and the
// trunk-loss regression line.
func RenderFatTree(tables []*metrics.Table, lp FatTreeLossPoint) string {
	out := renderTables(tables, false)
	out += fmt.Sprintf("# topology: 2-tier fat tree, %d hosts/leaf, %d spines (%d:1 oversubscribed), ECMP hash, flow-sticky\n",
		ftLeafRadix, ftSpines, ftLeafRadix/ftSpines)
	out += "# algorithm selection (default tuning)\n"
	for _, cs := range ftCases() {
		for _, ranks := range FatTreeRanks() {
			if ranks <= cs.maxRanks {
				out += algLine(cs.test, ranks, 3, cs.sizes)
			}
		}
	}
	out += fmt.Sprintf("# loss regression: fat-tree, %d procs, trunk loss %.1f%%: Alltoall %s t=%.2f usec, wire-lost %d, completed\n",
		lp.Ranks, lp.LossRate*100, sizeName(lp.Bytes), lp.TimeUsec, lp.WireLost)
	return out
}
