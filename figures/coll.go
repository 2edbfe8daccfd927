package figures

import (
	"fmt"

	"omxsim/metrics"
	"omxsim/mpi"
)

// The collective-scaling figure (beyond the paper): collective
// latency versus message size with I/OAT copy offload on and off, on
// worlds of 4–16 processes. Collectives are where receive-side
// offload matters most — every rank of an Alltoall receives p−1
// large fragmentable messages at once, exactly the overlap scenario
// the paper's copy pipeline targets. Worlds larger than the paper's
// two nodes connect through a simulated store-and-forward Ethernet
// switch.

// collWorld is one world shape of the collective figure.
type collWorld struct{ nodes, ppn int }

// collWorlds are the swept world shapes: 4, 8 and 16 processes at
// the paper's 2 processes per node.
func collWorlds() []collWorld {
	return []collWorld{{2, 2}, {4, 2}, {8, 2}}
}

// CollTests lists the collectives the figure sweeps (the NAS IS
// proxy's Alltoall(v)/Allreduce plus the IMB staple Bcast).
func CollTests() []string { return []string{"Allreduce", "Alltoall", "Bcast"} }

// CollSizes returns the figure's message-size sweep, crossing every
// default algorithm-selection threshold.
func CollSizes() []int { return []int{1 << 10, 16 << 10, 128 << 10, 1 << 20} }

// collStacks are the two compared stacks: plain Open-MX and Open-MX
// with I/OAT offload (network and shared-memory).
func collStacks() []curve {
	return []curve{
		{"Open-MX", Stack{Kind: "openmx", OMX: omxCfg(false)}},
		{"Open-MX I/OAT", Stack{Kind: "openmx", OMX: omxCfg(true)}},
	}
}

// Coll regenerates the collective figure: one table per collective,
// one series per (stack, world size), Y = IMB time in µs.
func Coll() []*metrics.Table {
	return collTables(CollTests(), CollSizes(), collWorlds())
}

// collTables sweeps every (test, world, stack) run as an independent
// IMB point on a fresh testbed and assembles the latency tables.
func collTables(tests []string, sizes []int, worlds []collWorld) []*metrics.Table {
	stacks := collStacks()
	var runs []imbRun
	for _, test := range tests {
		for _, wl := range worlds {
			for _, st := range stacks {
				runs = append(runs, imbRun{s: st.s, nodes: wl.nodes, ppn: wl.ppn, test: test, sizes: sizes, iters: 3})
			}
		}
	}
	results := imbSweep(runs)
	var tables []*metrics.Table
	i := 0
	for _, test := range tests {
		tab := metrics.NewTable(
			fmt.Sprintf("Collective latency: %s with I/OAT offload on/off", test),
			"msgsize", "t[usec]")
		for _, wl := range worlds {
			for _, st := range stacks {
				s := tab.AddSeries(fmt.Sprintf("%s, %d procs", st.name, wl.nodes*wl.ppn))
				for _, res := range results[i] {
					s.Add(float64(res.Bytes), res.TimeUsec)
				}
				i++
			}
		}
		tables = append(tables, tab)
	}
	return tables
}

// RenderColl formats the collective tables plus mpi's
// algorithm-selection footer, so the figure records which algorithm
// produced each point.
func RenderColl(tables []*metrics.Table) string {
	out := renderTables(tables, false) + "# algorithm selection (default tuning)\n"
	for _, test := range CollTests() {
		for _, wl := range collWorlds() {
			out += algLine(test, wl.nodes*wl.ppn, 2, CollSizes())
		}
	}
	return out
}

// algLine is one algorithm-selection footer line: the collective on p
// ranks (p printed width wide) and the algorithm mpi's fixed
// thresholds select at each size.
func algLine(test string, p, width int, sizes []int) string {
	out := fmt.Sprintf("%-10s %*d procs:", test, width, p)
	for _, n := range sizes {
		out += fmt.Sprintf(" %s=%s", sizeName(n), collAlg(test, n, p))
	}
	return out + "\n"
}

// collAlg names the host algorithm mpi selects for one collective of
// n bytes on p ranks.
func collAlg(test string, n, p int) string {
	switch test {
	case "Barrier":
		return mpi.BarrierAlg(p)
	case "Bcast":
		return mpi.BcastAlg(n, p)
	case "Allreduce":
		return mpi.AllreduceAlg(n, p)
	case "Alltoall":
		return mpi.AlltoallAlg(n, p)
	case "Scan":
		return mpi.ScanAlg(n, p)
	}
	return ""
}
